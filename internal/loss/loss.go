// Package loss implements the training objectives of the paper and its
// baselines: softmax cross-entropy (L_CE), the multi-domain triplet loss
// of Eq. 7 (L_T), the embedding L2 regularizer of Eq. 8 (L_reg), and the
// prototype-contrastive loss used by the FPL baseline.
//
// Every function returns both the scalar loss (mean over the batch) and
// analytic gradients with respect to its tensor inputs, computed in closed
// form; internal/nn propagates those through the network.
package loss

import (
	"fmt"
	"math"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// CrossEntropy computes mean softmax cross-entropy over a batch and its
// gradient at the logits: dL/dlogits = (softmax − onehot)/B.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	if logits.Dims() != 2 {
		return 0, nil, fmt.Errorf("loss: CE needs 2-D logits, got %v", logits.Shape())
	}
	b, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		return 0, nil, fmt.Errorf("loss: CE %d labels for batch %d", len(labels), b)
	}
	probs, err := tensor.Softmax(logits)
	if err != nil {
		return 0, nil, err
	}
	grad := probs.Clone()
	gd := grad.Data()
	pd := probs.Data()
	total := 0.0
	invB := 1.0 / float64(b)
	for i := 0; i < b; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			return 0, nil, fmt.Errorf("loss: CE label %d outside [0,%d)", y, c)
		}
		p := pd[i*c+y]
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
		gd[i*c+y] -= 1
	}
	for i := range gd {
		gd[i] *= invB
	}
	return total * invB, grad, nil
}

// NormalizedTriplet computes the paper's multi-domain triplet loss
// (Eq. 7) over a batch of L2-normalized embeddings. z holds anchor
// embeddings of the original samples; zp holds the style-transferred
// embeddings of the same samples in the same order (so zp[i] is the
// positive for anchor z[i]); the negatives of anchor i are all zp[j] with
// labels[j] ≠ labels[i]. With u = z/‖z‖ and up = zp/‖zp‖:
//
//	L_T = (1/B) Σ_i (‖u_i − up_i‖² − (1/|N_i|) Σ_{n∈N_i} ‖u_i − up_n‖² + α)
//
// This is Eq. 7 exactly as the paper prints it — no hinge: the positive
// distance is always pulled down and the mean negative distance always
// pushed up — and the normalization keeps distances in [0,4] so the
// objective is bounded. Anchors with no negatives in the batch contribute
// nothing. Gradients are propagated through the row normalization via
// du/dz = (I − uuᵀ)/‖z‖ and returned with respect to the raw z and zp.
func NormalizedTriplet(z, zp *tensor.Tensor, labels []int, margin float64) (float64, *tensor.Tensor, *tensor.Tensor, error) {
	if z.Dims() != 2 || zp.Dims() != 2 || !tensor.SameShape(z, zp) {
		return 0, nil, nil, fmt.Errorf("loss: normalized triplet shapes %v vs %v", z.Shape(), zp.Shape())
	}
	b, d := z.Dim(0), z.Dim(1)
	if len(labels) != b {
		return 0, nil, nil, fmt.Errorf("loss: triplet %d labels for batch %d", len(labels), b)
	}
	zn, zNorms := normalizeRows(z)
	zpn, zpNorms := normalizeRows(zp)
	dzn := tensor.New(b, d)
	dzpn := tensor.New(b, d)
	zd, zpd := zn.Data(), zpn.Data()
	dzd, dzpd := dzn.Data(), dzpn.Data()
	invB := 1.0 / float64(b)
	total := 0.0
	for i := 0; i < b; i++ {
		zi := zd[i*d : (i+1)*d]
		// Positive term.
		pos := 0.0
		zpi := zpd[i*d : (i+1)*d]
		for k := 0; k < d; k++ {
			diff := zi[k] - zpi[k]
			pos += diff * diff
		}
		// Negative set.
		var negIdx []int
		for j := 0; j < b; j++ {
			if labels[j] != labels[i] {
				negIdx = append(negIdx, j)
			}
		}
		if len(negIdx) == 0 {
			continue
		}
		invN := 1.0 / float64(len(negIdx))
		neg := 0.0
		for _, j := range negIdx {
			zpj := zpd[j*d : (j+1)*d]
			for k := 0; k < d; k++ {
				diff := zi[k] - zpj[k]
				neg += diff * diff * invN
			}
		}
		total += pos - neg + margin
		// Gradients (scaled by 1/B at the end):
		//   d/dz_i   =  2(z_i − zp_i) − (2/|N|) Σ (z_i − zp_n)
		//   d/dzp_i  = −2(z_i − zp_i)
		//   d/dzp_n  = +(2/|N|)(z_i − zp_n)
		dzi := dzd[i*d : (i+1)*d]
		dzpi := dzpd[i*d : (i+1)*d]
		for k := 0; k < d; k++ {
			g := 2 * (zi[k] - zpi[k])
			dzi[k] += g
			dzpi[k] -= g
		}
		for _, j := range negIdx {
			zpj := zpd[j*d : (j+1)*d]
			dzpj := dzpd[j*d : (j+1)*d]
			for k := 0; k < d; k++ {
				g := 2 * invN * (zi[k] - zpj[k])
				dzi[k] -= g
				dzpj[k] += g
			}
		}
	}
	dzn.Scale(invB)
	dzpn.Scale(invB)
	dz := backpropRowNorm(zn, dzn, zNorms)
	dzp := backpropRowNorm(zpn, dzpn, zpNorms)
	return total * invB, dz, dzp, nil
}

// normalizeRows returns row-normalized u = z/max(‖z‖, ε) and the norms.
func normalizeRows(z *tensor.Tensor) (*tensor.Tensor, []float64) {
	b, d := z.Dim(0), z.Dim(1)
	out := z.Clone()
	norms := make([]float64, b)
	od := out.Data()
	for i := 0; i < b; i++ {
		row := od[i*d : (i+1)*d]
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		n := math.Sqrt(s)
		if n < 1e-9 {
			n = 1e-9
		}
		norms[i] = n
		inv := 1.0 / n
		for k := range row {
			row[k] *= inv
		}
	}
	return out, norms
}

// backpropRowNorm maps gradients at u = z/‖z‖ back to z.
func backpropRowNorm(u, du *tensor.Tensor, norms []float64) *tensor.Tensor {
	b, d := u.Dim(0), u.Dim(1)
	out := tensor.New(b, d)
	ud, dud, od := u.Data(), du.Data(), out.Data()
	for i := 0; i < b; i++ {
		urow := ud[i*d : (i+1)*d]
		grow := dud[i*d : (i+1)*d]
		orow := od[i*d : (i+1)*d]
		dot := 0.0
		for k := 0; k < d; k++ {
			dot += grow[k] * urow[k]
		}
		inv := 1.0 / norms[i]
		for k := 0; k < d; k++ {
			orow[k] = (grow[k] - dot*urow[k]) * inv
		}
	}
	return out
}

// EmbedL2 computes the embedding regularizer of Eq. 8,
// L_reg = (1/B) Σ_i (‖z_i‖² + ‖zp_i‖²), and its gradients. zp may be nil
// (FedSR uses the single-view form).
func EmbedL2(z, zp *tensor.Tensor) (float64, *tensor.Tensor, *tensor.Tensor, error) {
	if z.Dims() != 2 {
		return 0, nil, nil, fmt.Errorf("loss: EmbedL2 needs 2-D z, got %v", z.Shape())
	}
	b := z.Dim(0)
	invB := 1.0 / float64(b)
	scale := func(v float64) float64 { return v * (2 * invB) }
	total := 0.0
	// Single fused sweep per operand instead of clone-then-scale.
	dz := tensor.New(z.Shape()...)
	_ = tensor.ApplyInto(dz, z, scale)
	for _, v := range z.Data() {
		total += v * v
	}
	var dzp *tensor.Tensor
	if zp != nil {
		if !tensor.SameShape(z, zp) {
			return 0, nil, nil, fmt.Errorf("loss: EmbedL2 shapes %v vs %v", z.Shape(), zp.Shape())
		}
		dzp = tensor.New(zp.Shape()...)
		_ = tensor.ApplyInto(dzp, zp, scale)
		for _, v := range zp.Data() {
			total += v * v
		}
	}
	return total * invB, dz, dzp, nil
}

// ProtoContrast is the prototype-alignment loss used by the FPL baseline:
// an InfoNCE over squared distances to class prototypes,
//
//	L = −(1/B) Σ_i log softmax_c(−‖u_i − P̂_c‖²/τ)[y_i],
//
// over L2-normalized embeddings u and prototypes P̂ (FPL normalizes both;
// unnormalized distances make the softmax saturate and the gradients
// explode). Rows of all-zero prototypes (classes never observed) are
// excluded from the softmax. Returns the loss and the gradient with
// respect to the raw z (prototypes are server-fixed constants during
// local training).
func ProtoContrast(z *tensor.Tensor, labels []int, protos *tensor.Tensor, tau float64) (float64, *tensor.Tensor, error) {
	zn, norms := normalizeRows(z)
	pn, _ := normalizeRows(protos)
	l, dzn, err := protoContrastRaw(zn, labels, pn, tau)
	if err != nil {
		return 0, nil, err
	}
	return l, backpropRowNorm(zn, dzn, norms), nil
}

func protoContrastRaw(z *tensor.Tensor, labels []int, protos *tensor.Tensor, tau float64) (float64, *tensor.Tensor, error) {
	if z.Dims() != 2 || protos.Dims() != 2 {
		return 0, nil, fmt.Errorf("loss: ProtoContrast shapes %v, %v", z.Shape(), protos.Shape())
	}
	b, d := z.Dim(0), z.Dim(1)
	c := protos.Dim(0)
	if protos.Dim(1) != d {
		return 0, nil, fmt.Errorf("loss: prototype dim %d, want %d", protos.Dim(1), d)
	}
	if len(labels) != b {
		return 0, nil, fmt.Errorf("loss: %d labels for batch %d", len(labels), b)
	}
	if tau <= 0 {
		return 0, nil, fmt.Errorf("loss: tau %g", tau)
	}
	// Identify live prototypes.
	live := make([]bool, c)
	pd := protos.Data()
	anyLive := false
	for cc := 0; cc < c; cc++ {
		row := pd[cc*d : (cc+1)*d]
		for _, v := range row {
			if v != 0 {
				live[cc] = true
				anyLive = true
				break
			}
		}
	}
	if !anyLive {
		return 0, tensor.New(b, d), nil
	}
	dz := tensor.New(b, d)
	zd, dzd := z.Data(), dz.Data()
	total := 0.0
	used := 0
	logits := make([]float64, c)
	probs := make([]float64, c)
	for i := 0; i < b; i++ {
		y := labels[i]
		if y < 0 || y >= c || !live[y] {
			continue // class prototype unobserved: skip sample
		}
		zi := zd[i*d : (i+1)*d]
		mx := math.Inf(-1)
		for cc := 0; cc < c; cc++ {
			if !live[cc] {
				continue
			}
			dist := 0.0
			row := pd[cc*d : (cc+1)*d]
			for k := 0; k < d; k++ {
				diff := zi[k] - row[k]
				dist += diff * diff
			}
			logits[cc] = -dist / tau
			if logits[cc] > mx {
				mx = logits[cc]
			}
		}
		sum := 0.0
		for cc := 0; cc < c; cc++ {
			if !live[cc] {
				probs[cc] = 0
				continue
			}
			probs[cc] = math.Exp(logits[cc] - mx)
			sum += probs[cc]
		}
		for cc := range probs {
			probs[cc] /= sum
		}
		p := probs[y]
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
		used++
		// dL/dz_i = Σ_c (p_c − 1[c=y]) · dlogit_c/dz = Σ_c (p_c − 1[c=y]) · (−2(z−P_c)/τ)
		dzi := dzd[i*d : (i+1)*d]
		for cc := 0; cc < c; cc++ {
			if !live[cc] {
				continue
			}
			coef := probs[cc]
			if cc == y {
				coef -= 1
			}
			if coef == 0 {
				continue
			}
			row := pd[cc*d : (cc+1)*d]
			for k := 0; k < d; k++ {
				dzi[k] += coef * (-2 * (zi[k] - row[k]) / tau)
			}
		}
	}
	if used == 0 {
		return 0, dz, nil
	}
	inv := 1.0 / float64(used)
	dz.Scale(inv)
	return total * inv, dz, nil
}

// MeanSquared returns the mean squared distance between z rows and fixed
// targets plus the gradient with respect to z — the alignment penalty used
// by FedSR's CMI surrogate.
func MeanSquared(z, targets *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if !tensor.SameShape(z, targets) {
		return 0, nil, fmt.Errorf("loss: MeanSquared shapes %v vs %v", z.Shape(), targets.Shape())
	}
	b := z.Dim(0)
	invB := 1.0 / float64(b)
	dz := tensor.New(z.Dim(0), z.Dim(1))
	zd, td, dzd := z.Data(), targets.Data(), dz.Data()
	total := 0.0
	for i := range zd {
		diff := zd[i] - td[i]
		total += diff * diff
		dzd[i] = 2 * diff * invB
	}
	return total * invB, dz, nil
}

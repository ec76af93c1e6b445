package baselines

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// CCSTMode selects what CCST shares: whole-client styles or per-sample
// styles. The sample-level mode is the configuration whose privacy the
// paper attacks in Table IV / Figs. 6–8.
type CCSTMode int

const (
	// CCSTOverall shares one style per client (the "overall" mode).
	CCSTOverall CCSTMode = iota + 1
	// CCSTSample shares a bank of individual sample styles per client.
	CCSTSample
)

// BankEntry is one shared style and its owning client.
type BankEntry struct {
	Owner int
	S     *style.Style
}

// CCST implements "Federated Domain Generalization for Image Recognition
// via Cross-Client Style Transfer" (Chen et al., WACV 2023): clients
// upload style statistics to a shared bank; during local training each
// client AdaIN-augments its samples toward styles of *other* clients,
// exposing every client to the styles present elsewhere in the federation.
//
// Contrast with PARDON: the bank holds raw per-client (or per-sample)
// styles — the cross-sharing that the paper's security analysis inverts —
// and each augmentation targets one individual foreign style rather than a
// fused interpolation style.
type CCST struct {
	Mode CCSTMode
	// SamplesPerClient bounds the per-client bank size in sample mode.
	SamplesPerClient int
	// AugPerBatch is how many augmented views accompany each batch.
	AugPerBatch int

	mu   sync.RWMutex
	bank []BankEntry

	avg fl.Averager
}

var _ fl.Algorithm = (*CCST)(nil)

// NewCCST returns CCST in its default "overall" (client-level) mode.
func NewCCST() *CCST {
	return &CCST{Mode: CCSTOverall, SamplesPerClient: 10, AugPerBatch: 1}
}

// NewCCSTSample returns CCST sharing sample-level styles — the high-leak
// configuration used as the privacy strawman in Table IV.
func NewCCSTSample() *CCST {
	return &CCST{Mode: CCSTSample, SamplesPerClient: 10, AugPerBatch: 1}
}

// Name implements fl.Algorithm.
func (c *CCST) Name() string {
	if c.Mode == CCSTSample {
		return "CCST-sample"
	}
	return "CCST"
}

// Bank returns a copy of the shared style bank after Setup — exactly what
// any participant (or the server) can observe, used by the privacy
// attacks.
func (c *CCST) Bank() []BankEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]BankEntry, len(c.bank))
	for i, e := range c.bank {
		out[i] = BankEntry{Owner: e.Owner, S: e.S.Clone()}
	}
	return out
}

// Setup implements fl.Algorithm: build and broadcast the style bank.
func (c *CCST) Setup(env *fl.Env, clients []*fl.Client) error {
	// Each client's entries build on the fan-out and join the bank in
	// client order.
	entries := make([][]BankEntry, len(clients))
	if err := env.ForEach(len(clients), func(_, k int) error {
		cl := clients[k]
		switch c.Mode {
		case CCSTSample:
			r := env.RNG.Stream("CCST", "bank", strconv.Itoa(cl.ID))
			n := c.SamplesPerClient
			if n <= 0 || n > len(cl.Features) {
				n = len(cl.Features)
			}
			for _, i := range r.Perm(len(cl.Features))[:n] {
				entries[k] = append(entries[k], BankEntry{Owner: cl.ID, S: cl.Styles[i].Clone()})
			}
		default:
			s, err := style.OfConcat(cl.Features, nil)
			if err != nil {
				return fmt.Errorf("ccst: client %d: %w", cl.ID, err)
			}
			entries[k] = []BankEntry{{Owner: cl.ID, S: s}}
		}
		return nil
	}); err != nil {
		return err
	}
	bank := slices.Concat(entries...)
	c.mu.Lock()
	c.bank = bank
	c.mu.Unlock()
	return nil
}

// LocalTrain implements fl.Algorithm: cross-entropy over the original
// batch plus AugPerBatch views style-transferred to random foreign styles.
func (c *CCST) LocalTrain(env *fl.Env, cl *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	r := env.RNG.Stream("CCST", "train", strconv.Itoa(cl.ID), strconv.Itoa(round))

	c.mu.RLock()
	bank := c.bank
	c.mu.RUnlock()
	// Foreign entries only: CCST transfers toward *other* clients.
	var foreign []BankEntry
	for _, e := range bank {
		if e.Owner != cl.ID {
			foreign = append(foreign, e)
		}
	}

	in := env.InputDim()
	acts, actsP := nn.AcquireActivations(), nn.AcquireActivations()
	defer acts.Release()
	defer actsP.Release()
	bufs := bufsPool.Get().(*trainBufs)
	defer bufsPool.Put(bufs)
	return fl.LocalSGD(env, cl, global, r, 0, func(model *nn.Model, grads *nn.Grads, x *tensor.Tensor, y, idx []int) error {
		if err := model.ForwardInto(acts, x); err != nil {
			return err
		}
		_, dLogits, err := bufs.ce.CrossEntropy(acts.Logits, y)
		if err != nil {
			return err
		}
		if err := model.Backward(acts, dLogits, nil, grads); err != nil {
			return err
		}
		for v := 0; v < c.AugPerBatch && len(foreign) > 0; v++ {
			// Each row is the sample re-styled from its stored
			// statistics, standardized in place.
			bufs.xp = tensor.Fit2D(bufs.xp, len(idx), in)
			xpd := bufs.xp.Data()
			for bi, i := range idx {
				target := foreign[r.Intn(len(foreign))].S
				row := xpd[bi*in : (bi+1)*in]
				if err := style.AdaINInto(row, cl.Features[i], &cl.Styles[i], target); err != nil {
					return err
				}
				env.NormalizeFeature(row)
			}
			if err := model.ForwardInto(actsP, bufs.xp); err != nil {
				return err
			}
			_, dLogitsP, err := bufs.ce.CrossEntropy(actsP.Logits, y)
			if err != nil {
				return err
			}
			if err := model.Backward(actsP, dLogitsP, nil, grads); err != nil {
				return err
			}
		}
		return nil
	})
}

// Aggregate implements fl.Algorithm (CCST uses plain FedAvg).
func (c *CCST) Aggregate(_ *fl.Env, _ *nn.Model, parts []*fl.Client, updates []*nn.Model, _ int) (*nn.Model, error) {
	return c.avg.FedAvg(parts, updates)
}

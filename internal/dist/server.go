package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"github.com/pardon-feddg/pardon/internal/engine"
)

// Fleet routes, mounted onto the engine's v2 API surface:
//
//	POST /v1/workers                          register a worker node
//	POST /v1/workers/{id}/lease               pull one lease, held up to TTL/3 (204 = none came)
//	POST /v1/workers/{id}/heartbeat           renew leases + report progress
//	POST /v1/workers/{id}/jobs/{job}/complete settle a lease
//	PUT  /v1/workers/{id}/jobs/{job}/model    upload the lease's checkpoint blob
//	GET  /v1/top                              fleet dashboard snapshot (workers, queues, slow spans)
//
// Everything rides the server's normal middleware: with -api-keys set,
// workers authenticate exactly like clients.

// maxUploadBytes caps checkpoint uploads. The largest configured model
// is a few MB of float64 parameters; 256 MiB keeps a confused worker
// from buffering arbitrary payloads into the coordinator.
const maxUploadBytes = 256 << 20

// Mount registers the fleet routes on an engine API server.
func (c *Coordinator) Mount(s *engine.Server) {
	s.Handle("POST /v1/workers", c.handleRegister)
	s.Handle("POST /v1/workers/{id}/lease", c.handleLease)
	s.Handle("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	s.Handle("POST /v1/workers/{id}/jobs/{job}/complete", c.handleComplete)
	s.Handle("PUT /v1/workers/{id}/jobs/{job}/model", c.handleModelUpload)
	s.Handle("GET /v1/top", c.handleTop)
}

// serveJSON answers a JSON call: it decodes a body of at most 1 MiB with
// strict fields into a Req, runs fn, and writes its answer or its error.
// No body carries a model: the checkpoint arrives by PUT …/model.
func serveJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) {
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		engine.WriteError(w, http.StatusBadRequest, engine.ErrCodeBadRequest, "bad request body: "+err.Error())
		return
	}
	resp, err := fn(req)
	if err != nil {
		writeCoordError(w, err)
		return
	}
	engine.WriteJSON(w, http.StatusOK, resp)
}

// writeCoordError maps coordinator errors onto the structured envelope.
func writeCoordError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		engine.WriteError(w, http.StatusNotFound, engine.ErrCodeUnknownWorker, err.Error())
	case errors.Is(err, ErrLeaseLost):
		engine.WriteError(w, http.StatusConflict, engine.ErrCodeLeaseLost, err.Error())
	case errors.Is(err, ErrVersionSkew):
		engine.WriteError(w, http.StatusConflict, engine.ErrCodeVersionSkew, err.Error())
	case errors.Is(err, ErrClosing), errors.Is(err, context.Canceled):
		// A pull the shutdown (or its own client) ended: nothing was
		// leased, retry later.
		engine.WriteError(w, http.StatusServiceUnavailable, engine.ErrCodeUnavailable, err.Error())
	default:
		engine.WriteError(w, http.StatusBadRequest, engine.ErrCodeBadRequest, err.Error())
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	serveJSON(w, r, c.Register)
}

// handleTop serves one dashboard snapshot; `feddg top` polls it.
func (c *Coordinator) handleTop(w http.ResponseWriter, _ *http.Request) {
	engine.WriteJSON(w, http.StatusOK, c.Top())
}

// handleLease holds the pull until a lease is claimed or the hold ends
// (see Claim): 204 means a third of the lease TTL passed with no work,
// 503 that the pull ended without a lease and may be retried.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	lease, err := c.Claim(r.Context(), strings.TrimSpace(r.PathValue("id")))
	if err != nil {
		writeCoordError(w, err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	engine.WriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	serveJSON(w, r, func(req engine.WorkerHeartbeatRequest) (engine.WorkerHeartbeatResponse, error) {
		return c.Heartbeat(strings.TrimSpace(r.PathValue("id")), req)
	})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	serveJSON(w, r, func(req engine.LeaseCompleteRequest) (map[string]string, error) {
		err := c.Complete(strings.TrimSpace(r.PathValue("id")), strings.TrimSpace(r.PathValue("job")), req)
		return map[string]string{"status": "ok"}, err
	})
}

// handleModelUpload stores a leased job's checkpoint blob under its
// content-address — called by the worker before the completion, so a
// Done job's model is fetchable the moment its state flips.
func (c *Coordinator) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	workerID := strings.TrimSpace(r.PathValue("id"))
	jobID := strings.TrimSpace(r.PathValue("job"))
	j, holder, ok := c.LeaseHolder(jobID)
	if !ok || holder != workerID {
		engine.WriteError(w, http.StatusConflict, engine.ErrCodeLeaseLost,
			"job "+jobID+" is not leased to worker "+workerID)
		return
	}
	blob, err := engine.ReadBody(http.MaxBytesReader(w, r.Body, maxUploadBytes), r.ContentLength)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			engine.WriteError(w, http.StatusRequestEntityTooLarge, engine.ErrCodePayloadTooLarge, err.Error())
		} else {
			engine.WriteError(w, http.StatusBadRequest, engine.ErrCodeBadRequest, "reading the model upload: "+err.Error())
		}
		return
	}
	if err := c.eng.Store().PutBlob(j.Key, blob); err != nil {
		engine.WriteError(w, http.StatusInternalServerError, engine.ErrCodeInternal, err.Error())
		return
	}
	engine.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"github.com/pardon-feddg/pardon/internal/engine"
)

// Fleet wire types, aliased from the engine like the rest of the SDK —
// the worker side of the coordinator/worker protocol (internal/dist).
type (
	// WorkerRegisterRequest announces a worker node to the coordinator.
	WorkerRegisterRequest = engine.WorkerRegisterRequest
	// WorkerRegisterResponse acknowledges a registration.
	WorkerRegisterResponse = engine.WorkerRegisterResponse
	// LeaseView is one leased job pulled from the coordinator.
	LeaseView = engine.LeaseView
	// LeaseProgress is one lease's round progress inside a heartbeat.
	LeaseProgress = engine.LeaseProgress
	// WorkerHeartbeatRequest renews the worker's liveness and leases.
	WorkerHeartbeatRequest = engine.WorkerHeartbeatRequest
	// WorkerHeartbeatResponse carries cancel/unknown instructions back.
	WorkerHeartbeatResponse = engine.WorkerHeartbeatResponse
	// LeaseCompleteRequest settles a lease with its outcome.
	LeaseCompleteRequest = engine.LeaseCompleteRequest
	// WorkerView is one registered worker of the fleet view.
	WorkerView = engine.WorkerView
)

// Fleet error codes.
const (
	ErrCodeUnknownWorker = engine.ErrCodeUnknownWorker
	ErrCodeLeaseLost     = engine.ErrCodeLeaseLost
	ErrCodeVersionSkew   = engine.ErrCodeVersionSkew
)

// RegisterWorker announces a worker node to the coordinator, returning
// its worker ID and the lease TTL to heartbeat against.
func (c *Client) RegisterWorker(ctx context.Context, req WorkerRegisterRequest) (WorkerRegisterResponse, error) {
	var resp WorkerRegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers", req, &resp)
	return resp, err
}

// PullLease asks the coordinator for one job lease. The coordinator
// holds the request until a job is queued or a third of the lease TTL
// passes; (nil, nil) means the hold passed with no work — pull again.
func (c *Client) PullLease(ctx context.Context, workerID string) (*LeaseView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/workers/"+url.PathEscape(workerID)+"/lease", nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil, nil
	case resp.StatusCode >= 400:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, parseAPIErrorResp(resp, raw)
	}
	var lease LeaseView
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		return nil, fmt.Errorf("client: decode lease: %w", err)
	}
	return &lease, nil
}

// WorkerHeartbeat renews the worker's liveness and every reported
// lease, returning the coordinator's cancel/unknown instructions.
func (c *Client) WorkerHeartbeat(ctx context.Context, workerID string, leases []LeaseProgress) (WorkerHeartbeatResponse, error) {
	var resp WorkerHeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/"+url.PathEscape(workerID)+"/heartbeat",
		WorkerHeartbeatRequest{Leases: leases}, &resp)
	return resp, err
}

// CompleteLease settles a lease with its outcome (result, error,
// cancelled, or abandoned). A *APIError with code ErrCodeLeaseLost
// means the lease expired and was requeued — drop the work.
func (c *Client) CompleteLease(ctx context.Context, workerID, jobID string, req LeaseCompleteRequest) error {
	return c.do(ctx, http.MethodPost,
		"/v1/workers/"+url.PathEscape(workerID)+"/jobs/"+url.PathEscape(jobID)+"/complete", req, nil)
}

// UploadLeaseModel uploads a leased job's trained-model checkpoint blob
// to the coordinator's store — call it before CompleteLease so the
// model is fetchable the moment the job turns Done.
func (c *Client) UploadLeaseModel(ctx context.Context, workerID, jobID string, blob []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+"/v1/workers/"+url.PathEscape(workerID)+"/jobs/"+url.PathEscape(jobID)+"/model",
		bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return parseAPIErrorResp(resp, raw)
	}
	return nil
}

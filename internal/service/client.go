package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client talks to a dvsimd server. The zero value is not usable; set
// Base to the server's root URL (e.g. "http://localhost:8080").
type Client struct {
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient. The
	// sync submit endpoint streams for the whole simulation, so any
	// client timeout must cover the run, not just the round trip.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// SubmitInfo reports how a synchronous submission was served.
type SubmitInfo struct {
	// Key is the run's cache key (X-Dvsim-Key).
	Key string
	// Cache is "hit", "miss" or "coalesced" (X-Dvsim-Cache).
	Cache string
	// Status is the streamed run's final verdict ("ok", or the failure
	// state and message); "ok" always for cache hits.
	Status string
	// Bytes is the artifact size streamed to the writer.
	Bytes int64
}

// Submit posts a submission to the synchronous endpoint and streams
// the artifact into w as the server produces it.
func (c *Client) Submit(ctx context.Context, sub Submission, w io.Writer) (SubmitInfo, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return SubmitInfo{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/api/v1/submit", bytes.NewReader(body))
	if err != nil {
		return SubmitInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return SubmitInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SubmitInfo{}, decodeError(resp)
	}
	info := SubmitInfo{
		Key:    resp.Header.Get("X-Dvsim-Key"),
		Cache:  resp.Header.Get("X-Dvsim-Cache"),
		Status: "ok",
	}
	info.Bytes, err = io.Copy(w, resp.Body)
	if err != nil {
		return info, err
	}
	// Trailers materialize once the body is fully read.
	if st := resp.Trailer.Get("X-Dvsim-Status"); st != "" && st != "ok" {
		info.Status = st
		return info, fmt.Errorf("remote run %s", st)
	}
	return info, nil
}

// StatusError is a response the server answered with an error status:
// 4xx for a submission it refuses, 5xx for one it cannot serve now.
type StatusError struct {
	Code    int    // HTTP status code
	Message string // the server's message
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// decodeError turns an error response into a *StatusError, preferring
// the server's JSON message.
func decodeError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(b))
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"freewayml/internal/obs"
	"freewayml/internal/serve"
)

// answer is what the benchmark reads back from one request.
type answer struct {
	status        int
	preds         []int
	snapshotBatch int
	snapshotAgeMS float64
	// Per-hop timings from response headers (0 when absent).
	workerMicros float64
	routerMicros float64
	attempts     int
}

// respBody decodes a process response, an infer response, or the error
// envelope: the fields the benchmark checks are common to all three.
type respBody struct {
	Predictions   []int   `json:"predictions"`
	SnapshotBatch int     `json:"snapshot_batch"`
	SnapshotAgeMS float64 `json:"snapshot_age_ms"`
	Error         *struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func parseBody(raw []byte, a *answer) error {
	var rb respBody
	if err := json.Unmarshal(raw, &rb); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if rb.Error != nil && a.status == http.StatusOK {
		a.status = rb.Error.Code
	}
	a.preds, a.snapshotBatch, a.snapshotAgeMS = rb.Predictions, rb.SnapshotBatch, rb.SnapshotAgeMS
	return nil
}

// conn sends one encoded request and waits for its answer.
type conn interface {
	do(r request, body []byte, traceparent string) (answer, error)
	close()
}

// httpConn sends requests over one keep-alive HTTP connection.
type httpConn struct {
	base   string
	ctype  string
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPConn(addr, transport string) *httpConn {
	ctype := serve.BinaryContentType
	if transport == transportJSON {
		ctype = "application/json"
	}
	return &httpConn{
		base:  "http://" + addr,
		ctype: ctype,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *httpConn) do(r request, body []byte, traceparent string) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path(), bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", c.ctype)
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return answer{}, err
	}
	a := answer{status: resp.StatusCode}
	a.workerMicros, _ = strconv.ParseFloat(resp.Header.Get(obs.WorkerMicrosHeader), 64)
	a.routerMicros, _ = strconv.ParseFloat(resp.Header.Get(obs.RouterMicrosHeader), 64)
	a.attempts, _ = strconv.Atoi(resp.Header.Get(obs.AttemptsHeader))
	return a, parseBody(c.buf.Bytes(), &a)
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

// frameConn sends length-prefixed frames on a persistent connection to the
// server's binary listener; each frame is answered with a length-prefixed
// JSON body.
type frameConn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialFrameConn(addr string) (*frameConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &frameConn{nc: nc, br: bufio.NewReader(nc)}, nil
}

func (c *frameConn) do(_ request, body []byte, _ string) (answer, error) {
	if err := c.nc.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return answer{}, err
	}
	if _, err := c.nc.Write(body); err != nil {
		return answer{}, err
	}
	var pfx [4]byte
	if _, err := io.ReadFull(c.br, pfx[:]); err != nil {
		return answer{}, err
	}
	n := binary.LittleEndian.Uint32(pfx[:])
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if _, err := io.ReadFull(c.br, c.buf); err != nil {
		return answer{}, err
	}
	a := answer{status: http.StatusOK}
	return a, parseBody(c.buf, &a)
}

func (c *frameConn) close() { c.nc.Close() }

// dial opens one sender connection for w against the cluster.
func dial(w *workload, c *cluster) (conn, error) {
	if w.transport == transportConn {
		return dialFrameConn(c.connAddr)
	}
	return newHTTPConn(c.httpAddr, w.transport), nil
}

// refused reports whether a failure means the server turned the request
// away (overload, shutdown, nobody listening) rather than failed it.
func refused(status int, err error) bool {
	if err != nil {
		var op *net.OpError
		return errors.As(err, &op) && op.Op == "dial"
	}
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// getJSON fetches a GET endpoint into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

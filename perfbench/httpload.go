package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loopback serves a handler on a 127.0.0.1 port for the run.
type loopback struct {
	srv    *http.Server
	base   string
	served chan error
	client *http.Client
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:    &http.Server{Handler: h},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
	}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the listener and every connection, and waits for Serve.
func (lb *loopback) close() {
	lb.client.CloseIdleConnections()
	lb.srv.Close()
	<-lb.served
}

// searchResult is the part of a /search answer the oracles read.
type searchResult struct {
	Docs   []uint32 `json:"docs"`
	Ranked []Scored `json:"ranked"`
}

func searchURL(base string, q Query) string {
	v := url.Values{"q": {strings.Join(q.Words, " ")}, "mode": {q.Mode}}
	if q.Mode == "topk" {
		v.Set("k", strconv.Itoa(q.K))
	}
	return base + "/search?" + v.Encode()
}

// search sends one query; any transport error, non-200 status or
// undecodable body is an error.
func (lb *loopback) search(q Query) (searchResult, error) {
	var r searchResult
	resp, err := lb.client.Get(searchURL(lb.base, q))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("/search: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("/search: %w", err)
	}
	return r, nil
}

// post sends a POST, requires a 200 and returns the body.
func (lb *loopback) post(path string, body []byte) ([]byte, error) {
	resp, err := lb.client.Post(lb.base+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return msg, nil
}

// recorded is a measured answer kept for the oracle.
type recorded struct {
	q Query
	r searchResult
}

// replayResult is what a closed-loop query replay saw.
type replayResult struct {
	latMs    []float64
	ok, fail int
	firstErr error
	kept     []recorded
	wall     time.Duration
}

// replayOpts bounds a closed-loop replay.
type replayOpts struct {
	clients  int
	deadline time.Time       // stop at this time (zero: no deadline)
	stop     <-chan struct{} // stop once closed (nil: never)
	limit    int             // stop after this many log entries (0: no limit)
	keep     int             // answers per client kept for the oracle
}

// replay runs closed-loop query clients until a bound in o is hit.
// Client c walks the log from position c in strides of o.clients,
// wrapping around, and keeps its first o.keep answers.
func (lb *loopback) replay(log []Query, o replayOpts) replayResult {
	clients, keep := o.clients, o.keep
	parts := make([]replayResult, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for i := c; ; i += clients {
				if o.limit > 0 && i >= o.limit {
					return
				}
				if o.stop != nil {
					select {
					case <-o.stop:
						return
					default:
					}
				}
				if !o.deadline.IsZero() && !time.Now().Before(o.deadline) {
					return
				}
				q := log[i%len(log)]
				t := time.Now()
				r, err := lb.search(q)
				p.latMs = append(p.latMs, ms(time.Since(t)))
				if err != nil {
					p.fail++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.ok++
				if len(p.kept) < keep {
					p.kept = append(p.kept, recorded{q, r})
				}
			}
		}(c)
	}
	wg.Wait()
	out := replayResult{wall: time.Since(t0)}
	for _, p := range parts {
		out.latMs = append(out.latMs, p.latMs...)
		out.ok += p.ok
		out.fail += p.fail
		out.kept = append(out.kept, p.kept...)
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

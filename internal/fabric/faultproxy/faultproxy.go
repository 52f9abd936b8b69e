// Package faultproxy is a controllable TCP proxy for fabric chaos
// tests: it sits between a coordinator and one worker and can, at any
// moment, kill the worker (sever every connection and refuse new
// ones), hang it (connections stay open but no byte moves — the
// coordinator's hang watchdog territory), or corrupt the worker's
// response bytes (the defensive-decoder territory). All transitions
// are safe mid-campaign; Resume restores pass-through for new
// connections.
package faultproxy

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Mode is the proxy's current fault behaviour.
type Mode int

// Fault modes: pass-through, dead worker, hung worker, corrupting
// worker.
const (
	// ModePass forwards traffic untouched.
	ModePass Mode = iota
	// ModeKill severs every connection and resets new ones — the
	// coordinator sees a dead worker.
	ModeKill
	// ModeHang keeps connections open but forwards nothing — the
	// coordinator sees a silent worker (hang-timeout territory).
	ModeHang
	// ModeCorrupt flips a byte in every worker-to-client chunk — the
	// coordinator's decoders see garbage mid-stream.
	ModeCorrupt
)

// Proxy is one controllable worker front. Create with New, point the
// coordinator at URL, and drive faults from the test.
type Proxy struct {
	target string
	ln     net.Listener

	mu    sync.Mutex
	mode  Mode
	conns map[net.Conn]bool
	// gen increments on every mode change, waking hung forwarders.
	gen    int
	wake   chan struct{}
	closed bool
}

// New starts a proxy on a fresh loopback port forwarding to target
// (a host:port address).
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultproxy: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		conns:  make(map[net.Conn]bool),
		wake:   make(chan struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL for a coordinator's worker list.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Mode returns the current fault mode.
func (p *Proxy) Mode() Mode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode
}

// setMode switches modes and wakes every forwarder blocked on the old
// one.
func (p *Proxy) setMode(m Mode) {
	p.mu.Lock()
	p.mode = m
	p.gen++
	close(p.wake)
	p.wake = make(chan struct{})
	if m == ModeKill {
		for conn := range p.conns {
			_ = conn.Close()
		}
	}
	p.mu.Unlock()
}

// Kill severs every live connection and refuses new ones until
// Resume: the worker is dead as far as the coordinator can tell.
func (p *Proxy) Kill() { p.setMode(ModeKill) }

// Hang freezes traffic without closing anything: connections stay
// established, no byte moves.
func (p *Proxy) Hang() { p.setMode(ModeHang) }

// Corrupt flips a byte in every worker-to-client chunk from now on.
func (p *Proxy) Corrupt() { p.setMode(ModeCorrupt) }

// Resume restores pass-through for new connections (connections Kill
// severed stay dead — the coordinator re-dials).
func (p *Proxy) Resume() { p.setMode(ModePass) }

// Close shuts the proxy down and severs everything.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for conn := range p.conns {
		_ = conn.Close()
	}
	p.mu.Unlock()
	return p.ln.Close()
}

// acceptLoop accepts client connections and pairs each with an
// upstream dial.
func (p *Proxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		mode, closed := p.mode, p.closed
		if !closed && mode != ModeKill {
			p.conns[conn] = true
		}
		p.mu.Unlock()
		if closed || mode == ModeKill {
			_ = conn.Close()
			continue
		}
		go p.serve(conn)
	}
}

// track registers a connection for Kill/Close severing.
func (p *Proxy) track(conn net.Conn) {
	p.mu.Lock()
	if p.closed || p.mode == ModeKill {
		p.mu.Unlock()
		_ = conn.Close()
		return
	}
	p.conns[conn] = true
	p.mu.Unlock()
}

// untrack forgets a finished connection.
func (p *Proxy) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// serve proxies one client connection to the upstream worker.
func (p *Proxy) serve(client net.Conn) {
	defer p.untrack(client)
	defer client.Close()
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return
	}
	p.track(upstream)
	defer p.untrack(upstream)
	defer upstream.Close()

	done := make(chan struct{}, 2)
	go func() { p.forward(upstream, client, false); done <- struct{}{} }()
	go func() { p.forward(client, upstream, true); done <- struct{}{} }()
	<-done
	// One direction died; sever the other so both forwarders exit.
}

// forward pumps one direction chunk by chunk, applying the current
// fault mode per chunk. corrupt marks the worker-to-client direction
// (only worker responses are corrupted — the request side stays
// clean, like a worker whose output path went bad).
func (p *Proxy) forward(dst, src net.Conn, corruptible bool) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.gate(corruptible, buf[:n]) {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// gate applies the current mode to one chunk: blocks while hung,
// corrupts in place when asked. Returns
// false when the connection should be severed instead.
func (p *Proxy) gate(corruptible bool, chunk []byte) bool {
	for {
		p.mu.Lock()
		mode, wake, closed := p.mode, p.wake, p.closed
		p.mu.Unlock()
		if closed || mode == ModeKill {
			return false
		}
		if mode == ModeHang {
			<-wake // blocks until the next mode change
			continue
		}
		if mode == ModeCorrupt && corruptible && len(chunk) > 0 {
			chunk[len(chunk)/2] ^= 0xFF
		}
		return true
	}
}

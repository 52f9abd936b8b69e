// Package daemon boots ltpserved processes for the smoke harnesses
// (scripts/servesmoke, scripts/fabricsmoke). Boot waits for a
// process's machine-readable "listening on <addr>" line and keeps the
// tail of its stderr, which DumpStderr prints when a smoke fails; Kill
// SIGKILLs and reaps it; Get and Decode read its JSON responses.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Daemon is one booted ltpserved process.
type Daemon struct {
	// Base is the process's base URL ("http://127.0.0.1:<port>").
	Base string

	cmd  *exec.Cmd
	once sync.Once
}

// Boot starts ltpserved from bin with the given args and waits for its
// "listening on <addr>" line. name labels the process's stderr in the
// failure dump.
func Boot(bin, name string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// Capture stderr instead of streaming it: on failure the harness
	// dumps each daemon's tail next to the error, where it is readable,
	// rather than interleaved with the whole run's output.
	cmd.Stderr = newTail(name + ": ltpserved " + strings.Join(args, " "))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &Daemon{cmd: cmd}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "listening on ") {
				addrCh <- strings.TrimPrefix(line, "listening on ")
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.Base = "http://" + addr
		return d, nil
	case <-time.After(30 * time.Second):
		d.Kill()
		return nil, fmt.Errorf("%s never reported its address", name)
	}
}

// Kill SIGKILLs the process — a crash, not a graceful drain — and
// reaps it. Later calls do nothing.
func (d *Daemon) Kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})
}

// tailLines is how much of each daemon's stderr is retained for the
// failure dump.
const tailLines = 100

// tail captures the last tailLines lines a daemon wrote to stderr, so
// a failure can show what the server was doing instead of a bare HTTP
// status.
type tail struct {
	name string

	mu      sync.Mutex
	partial []byte
	lines   []string
}

// tails registers every booted daemon's stderr tail, oldest first.
var tails struct {
	mu  sync.Mutex
	all []*tail
}

// newTail creates and registers a tail for one daemon.
func newTail(name string) *tail {
	t := &tail{name: name}
	tails.mu.Lock()
	tails.all = append(tails.all, t)
	tails.mu.Unlock()
	return t
}

// Write appends daemon output, keeping only the newest lines.
func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partial = append(t.partial, p...)
	for {
		i := bytes.IndexByte(t.partial, '\n')
		if i < 0 {
			break
		}
		t.lines = append(t.lines, string(t.partial[:i]))
		t.partial = t.partial[i+1:]
		if len(t.lines) > tailLines {
			t.lines = t.lines[len(t.lines)-tailLines:]
		}
	}
	return len(p), nil
}

// DumpStderr prints every booted daemon's captured stderr tail to
// os.Stderr (newest daemon last) — the first thing to read when a
// smoke fails.
func DumpStderr() {
	tails.mu.Lock()
	all := tails.all
	tails.mu.Unlock()
	for _, t := range all {
		t.mu.Lock()
		lines := t.lines
		if len(t.partial) > 0 {
			lines = append(lines, string(t.partial))
		}
		if len(lines) == 0 {
			fmt.Fprintf(os.Stderr, "--- %s: no stderr output ---\n", t.name)
		} else {
			fmt.Fprintf(os.Stderr, "--- %s: last %d stderr lines ---\n", t.name, len(lines))
			for _, l := range lines {
				fmt.Fprintln(os.Stderr, l)
			}
		}
		t.mu.Unlock()
	}
}

// Get fetches url and decodes its JSON body into out (nil = just check
// for status 200).
func Get(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return Decode(resp, out, 200)
}

// Decode reads a response, failing with the offending body — trimmed
// to a sane length — whenever the status is not one of okStatus or the
// payload does not decode into out (nil = no payload wanted), so a
// failure shows what the server actually said.
func Decode(resp *http.Response, out any, okStatus ...int) error {
	defer resp.Body.Close()
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	ok := false
	for _, s := range okStatus {
		if resp.StatusCode == s {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("status %d; body: %s", resp.StatusCode, trimBody(body))
	}
	if readErr != nil {
		return fmt.Errorf("reading response body: %w", readErr)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decoding response: %v; body: %s", err, trimBody(body))
	}
	return nil
}

// trimBody renders a response body for an error message.
func trimBody(body []byte) string {
	s := strings.TrimSpace(string(body))
	if s == "" {
		return "<empty>"
	}
	if len(s) > 2048 {
		s = s[:2048] + " ...[truncated]"
	}
	return s
}

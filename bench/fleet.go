package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"adhocgrid/internal/fabric"
	"adhocgrid/internal/serve"
)

// fleetBackends is the number of slrhd processes behind the router.
// With `-workers 1` each, fleet run concurrency equals the two cores the
// benchmark is sized for.
const fleetBackends = 2

// proc is one fleet daemon started from a built binary.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the daemon's stdout reaches EOF
}

// startProc launches bin with args and waits for its "listening on"
// line, from which it takes the daemon's loopback URL.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	br := bufio.NewReader(out)
	first := make(chan string, 1)
	go func() {
		defer close(p.done)
		line, _ := br.ReadString('\n')
		first <- line
		//lint:errdrop the daemon's later log lines are not needed; EOF or a read error both mean it exited
		_, _ = io.Copy(io.Discard, br)
	}()
	timer := time.NewTimer(15 * time.Second) //lint:wallclock start-up timeout for a fleet daemon; not a measurement
	defer timer.Stop()
	var line string
	select {
	case line = <-first:
	case <-timer.C:
	}
	_, addr, ok := strings.Cut(strings.TrimSpace(line), " listening on ")
	if ok {
		addr, _, _ = strings.Cut(addr, ",")
	}
	if !ok || addr == "" {
		p.kill()
		return nil, fmt.Errorf("%s did not report a listen address (first line %q)", filepath.Base(bin), line)
	}
	p.url = "http://" + addr
	return p, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// daemon if the drain overruns.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("%s exited before it was stopped", p.cmd.Path)
	}
	waited := make(chan error, 1)
	go func() {
		<-p.done
		waited <- p.cmd.Wait()
	}()
	timer := time.NewTimer(30 * time.Second) //lint:wallclock drain timeout for a fleet daemon; not a measurement
	defer timer.Stop()
	select {
	case err := <-waited:
		return err
	case <-timer.C:
		//lint:errdrop the process may already be gone; Wait below reaps it either way
		_ = p.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("%s did not drain within 30s", p.cmd.Path)
	}
}

// kill stops a daemon that never became usable and reaps it.
func (p *proc) kill() {
	//lint:errdrop the process may already be gone; Wait reaps it either way
	_ = p.cmd.Process.Kill()
	<-p.done
	//lint:errdrop a killed process always reports a signal exit
	_ = p.cmd.Wait()
}

// fleet is one slrhrouter over fleetBackends `slrhd -workers 1`
// processes on loopback, every other flag at its default.
type fleet struct {
	router   *proc
	backends []*proc
}

// backendPortBase is the first loopback port of the backends. The
// router's hash ring places keys by backend URL, so fixed URLs let the
// seed alone decide which backend is home for each request. A block of
// ports that is already taken is skipped for the next of portBlocks.
const (
	backendPortBase = 27301
	portBlocks      = 8
)

// startFleet boots a fleet from the binaries in bin and waits until the
// router and every backend answer /readyz.
func startFleet(ctx context.Context, bin string, client *http.Client) (*fleet, error) {
	var err error
	for b := 0; b < portBlocks; b++ {
		var f *fleet
		if f, err = startFleetAt(ctx, bin, client, backendPortBase+10*b); err == nil {
			return f, nil
		}
	}
	return nil, err
}

// startFleetAt boots a fleet whose backends listen on consecutive ports
// from port.
func startFleetAt(ctx context.Context, bin string, client *http.Client, port int) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for k := 0; k < fleetBackends; k++ {
		p, err := startProc(filepath.Join(bin, "slrhd"), "-addr", fmt.Sprintf("127.0.0.1:%d", port+k), "-workers", "1")
		if err != nil {
			//lint:errdrop the fleet never served; its partial teardown has nothing to report
			_ = f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
		urls = append(urls, p.url)
	}
	p, err := startProc(filepath.Join(bin, "slrhrouter"), "-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","))
	if err != nil {
		//lint:errdrop the fleet never served; its partial teardown has nothing to report
		_ = f.stop()
		return nil, err
	}
	f.router = p
	for _, u := range append(urls, p.url) {
		if err := awaitReady(ctx, client, u); err != nil {
			//lint:errdrop the fleet never became ready; the readiness error is the one to report
			_ = f.stop()
			return nil, err
		}
	}
	return f, nil
}

// procs lists the fleet's daemons, router first.
func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.backends
	}
	return append([]*proc{f.router}, f.backends...)
}

// stop drains every daemon of the fleet, router first.
func (f *fleet) stop() error {
	var errs []error
	for _, p := range f.procs() {
		if err := p.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// awaitReady polls base/readyz until it answers 200.
func awaitReady(ctx context.Context, client *http.Client, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			//lint:errdrop the probe only needs the status
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", base, ctx.Err())
		case <-time.After(2 * time.Millisecond): //lint:wallclock readiness poll pacing; not a measurement
		}
	}
}

// memFleet is the same topology built in-process from the service
// packages: one fabric.Router over fleetBackends serve.Servers with one
// worker each, on loopback listeners. Tests and the traced replay use
// it; handler and transport may carry timing hooks.
type memFleet struct {
	servers  []*serve.Server
	https    []*http.Server
	router   *fabric.Router
	tr       *http.Transport
	url      string
	backends []string
}

// startMemFleet boots an in-process fleet. wrap, when non-nil, wraps
// each backend's handler; rt, when non-nil, wraps the router's
// transport to its backends.
func startMemFleet(wrap func(http.Handler) http.Handler, rt func(http.RoundTripper) http.RoundTripper) (*memFleet, error) {
	m := &memFleet{tr: http.DefaultTransport.(*http.Transport).Clone()}
	for k := 0; k < fleetBackends; k++ {
		s := serve.New(serve.Config{Workers: 1})
		h := s.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		u, err := m.listen(h)
		m.servers = append(m.servers, s)
		if err != nil {
			m.stop()
			return nil, err
		}
		m.backends = append(m.backends, u)
	}
	var transport http.RoundTripper = m.tr
	if rt != nil {
		transport = rt(transport)
	}
	router, err := fabric.New(fabric.Config{Backends: m.backends, Client: &http.Client{Transport: transport}})
	if err != nil {
		m.stop()
		return nil, err
	}
	m.router = router
	if m.url, err = m.listen(router.Handler()); err != nil {
		m.stop()
		return nil, err
	}
	return m, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (m *memFleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	m.https = append(m.https, srv)
	go func() {
		//lint:errdrop Serve returns ErrServerClosed once stop shuts the server down
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every listener, the router's prober and the backends'
// worker pools down.
func (m *memFleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(m.https) - 1; i >= 0; i-- {
		//lint:errdrop teardown: an overrun shutdown leaves nothing the benchmark reads
		_ = m.https[i].Shutdown(ctx)
	}
	if m.router != nil {
		m.router.Close()
	}
	for _, s := range m.servers {
		s.Close()
	}
	m.tr.CloseIdleConnections()
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ppstream/internal/core"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// provider is a live model provider with a data provider attached: a
// ppserver child process with one protocol.Client session, or an
// in-process core.Engine holding both roles.
type provider interface {
	// infer runs one inference; traced also returns the program's merged
	// trace of it.
	infer(ctx context.Context, x *tensor.Dense, traced bool) (*tensor.Dense, *obs.TraceTree, error)
	// usage reads the CPU used so far and the peak resident memory of
	// each party's process; a party sharing the benchmark's process
	// reads 0 on the server side.
	usage() (clientCPU, serverCPU time.Duration, clientMB, serverMB float64, err error)
	close() error
}

// serverProc is a running ppserver child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  *logWatcher
	done chan error // receives cmd.Wait's result once the process exits
}

// startServer launches ppserver with its default flags apart from the
// model, a free loopback port and the agreed factor, and returns once
// it logs that it is listening.
func startServer(bin, modelPath string, factor int64) (*serverProc, error) {
	cmd := exec.Command(bin, "-model", modelPath, "-listen", "127.0.0.1:0", "-factor", strconv.FormatInt(factor, 10))
	log := &logWatcher{addr: make(chan string, 1), planned: make(chan struct{}, 1)}
	cmd.Stdout = log
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the kernel kills the
	// server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ppserver: %w", err)
	}
	s := &serverProc{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	select {
	case s.addr = <-log.addr:
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("ppserver exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("ppserver did not report listening within 60s")
	}
}

// awaitSession returns once the server logs that it has built the
// session's model provider and solved its backend plan.
func (s *serverProc) awaitSession() error {
	select {
	case <-s.log.planned:
		return nil
	case err := <-s.done:
		s.done <- err
		return fmt.Errorf("ppserver exited before building the session: %v", err)
	case <-time.After(60 * time.Second):
		return errors.New("ppserver did not build the session within 60s")
	}
}

// stop interrupts the server (SIGINT skips its drain hold) and waits
// for it to exit, killing it if it lingers.
func (s *serverProc) stop() {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		_ = s.cmd.Process.Kill()
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// logWatcher consumes ppserver's JSON log lines. It reports the bound
// address from the "ppserver started" line and signals the first
// session's "session plan solved" line; later lines are discarded.
type logWatcher struct {
	mu      sync.Mutex
	buf     []byte
	started bool
	solved  bool
	addr    chan string
	planned chan struct{}
}

func (r *logWatcher) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.solved {
		return len(p), nil
	}
	r.buf = append(r.buf, p...)
	for {
		i := bytes.IndexByte(r.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		var line struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(r.buf[:i], &line) == nil {
			switch {
			case !r.started && line.Msg == "ppserver started":
				r.started = true
				r.addr <- line.Addr
			case r.started && line.Msg == "session plan solved":
				r.solved = true
				r.buf = nil
				r.planned <- struct{}{}
				return len(p), nil
			}
		}
		r.buf = r.buf[i+1:]
	}
}

// tcpProvider is a ppserver child with one multiplexed client session.
type tcpProvider struct {
	srv    *serverProc
	conn   *countingConn
	client *protocol.Client
	cancel context.CancelFunc
}

// startTCP launches ppserver and opens a session on it; it returns once
// the server has built the session, so the first request can be sent.
func startTCP(bin, modelPath string, arch *nn.Network, key *paillier.PrivateKey, factor int64, window int) (*tcpProvider, error) {
	srv, err := startServer(bin, modelPath, factor)
	if err != nil {
		return nil, err
	}
	raw, err := net.Dial("tcp", srv.addr)
	if err != nil {
		srv.stop()
		return nil, err
	}
	conn := &countingConn{Conn: raw}
	edge := stream.NewTCPEdge(conn)
	ctx, cancel := context.WithCancel(context.Background())
	client, err := protocol.NewClientOpts(ctx, edge, edge, arch, key, factor, protocol.ClientOptions{Workers: 2, Window: window})
	if err == nil {
		// The Hello gets no reply: the server builds the session's model
		// provider after reading it, which its log line marks.
		if err = srv.awaitSession(); err != nil {
			client.Close()
		}
	}
	if err != nil {
		cancel()
		raw.Close()
		srv.stop()
		return nil, fmt.Errorf("opening session: %w", err)
	}
	return &tcpProvider{srv: srv, conn: conn, client: client, cancel: cancel}, nil
}

func (p *tcpProvider) infer(ctx context.Context, x *tensor.Dense, traced bool) (*tensor.Dense, *obs.TraceTree, error) {
	if traced {
		return p.client.InferTraced(ctx, x)
	}
	out, err := p.client.Infer(ctx, x)
	return out, nil, err
}

func (p *tcpProvider) usage() (time.Duration, time.Duration, float64, float64, error) {
	srvCPU, err := procCPU(p.srv.cmd.Process.Pid)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	srvMB, err := peakRSSMB(p.srv.cmd.Process.Pid)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	cliCPU, err := procCPU(os.Getpid())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	cliMB, err := peakRSSMB(os.Getpid())
	return cliCPU, srvCPU, cliMB, srvMB, err
}

func (p *tcpProvider) close() error {
	err := p.client.Close()
	p.cancel()
	p.conn.Close()
	p.srv.stop()
	return err
}

// engineProvider is an in-process core.Engine serving both roles.
type engineProvider struct {
	eng *core.Engine
}

// startEngine builds the engine from opts and starts its serving
// runtime; it returns once the first request can be submitted.
func startEngine(net *nn.Network, key *paillier.PrivateKey, opts core.Options) (*engineProvider, error) {
	eng, err := core.NewEngine(net, key, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.Serve(context.Background()); err != nil {
		eng.Close()
		return nil, err
	}
	return &engineProvider{eng: eng}, nil
}

func (p *engineProvider) infer(ctx context.Context, x *tensor.Dense, traced bool) (*tensor.Dense, *obs.TraceTree, error) {
	out, trace, err := p.eng.Submit(ctx, x)
	if !traced || err != nil {
		return out, nil, err
	}
	return out, core.TraceTreeOf(trace), nil
}

func (p *engineProvider) usage() (time.Duration, time.Duration, float64, float64, error) {
	cpu, err := procCPU(os.Getpid())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	mb, err := peakRSSMB(os.Getpid())
	return cpu, 0, mb, 0, err
}

func (p *engineProvider) close() error {
	p.eng.Close()
	return nil
}

// modelPath is where the prepare step leaves the trained model. The
// name carries a hash of the running benchmark binary, which links the
// training code (models, nn, tensor): a checkout rebuilt from changed
// sources trains its model again rather than reuse one the old code made.
func modelPath(build string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(build, "models", fmt.Sprintf("%s-%x.gob", model, h.Sum(nil)[:8])), nil
}

package main

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"net"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {9, 0}, {10, 0}, {20, 50}, {39, 74}, {40, 75}, {50, 80},
		{100, 90}, {999, 98}, {1000, 99}, {1250, 99}, {100000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule itself: at least ten samples beyond p, and p is the
	// highest whole percentile below 100 for which that holds.
	for n := minTailSamples; n <= 5000; n++ {
		p := tailPercentile(n)
		if beyond := float64(n) * float64(100-p) / 100; beyond < minTailSamples {
			t.Fatalf("n=%d: p%d leaves %.2f samples beyond it", n, p, beyond)
		}
		if p < 99 && float64(n)*float64(99-p)/100 >= minTailSamples {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {75, 75}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 3}
	if got := median(in); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if in[0] != 5 {
		t.Errorf("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g, want 0", got)
	}
}

func TestPerReq(t *testing.T) {
	if got := perReq(10, 4); got != 2.5 {
		t.Errorf("perReq(10, 4) = %g, want 2.5", got)
	}
	if got := perReq(10, 0); got != 0 {
		t.Errorf("perReq with no requests = %g, want 0", got)
	}
	if got := perReq(0, 3); got != 0 {
		t.Errorf("perReq(0, 3) = %g, want 0", got)
	}
}

// writeLog keeps each Write as its own chunk: gob writes every message,
// type descriptors included, with exactly one Write.
type writeLog struct{ chunks [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, append([]byte(nil), p...))
	return len(p), nil
}

type frame struct {
	Seq     uint64
	Payload []byte
}

// gobStream encodes frames whose sizes need one-, two- and three-byte
// length headers and returns the stream and its message count.
func gobStream(t *testing.T) ([]byte, int) {
	var log writeLog
	enc := gob.NewEncoder(&log)
	for _, size := range []int{0, 3, 100, 127, 128, 255, 256, 70000, 1} {
		if err := enc.Encode(frame{Seq: uint64(size), Payload: bytes.Repeat([]byte{0xAB}, size)}); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Join(log.chunks, nil), len(log.chunks)
}

func TestGobFramerCountsMessages(t *testing.T) {
	stream, want := gobStream(t)
	rng := rand.New(rand.NewSource(1))
	for _, split := range []string{"whole", "bytewise", "random"} {
		var f gobFramer
		switch split {
		case "whole":
			f.feed(stream)
		case "bytewise":
			for i := range stream {
				f.feed(stream[i : i+1])
			}
		case "random":
			for rest := stream; len(rest) > 0; {
				n := 1 + rng.Intn(300)
				if n > len(rest) {
					n = len(rest)
				}
				f.feed(rest[:n])
				rest = rest[n:]
			}
		}
		if got := f.count(); got != uint64(want) {
			t.Errorf("%s: counted %d messages, want %d", split, got, want)
		}
	}
}

func TestCountingConn(t *testing.T) {
	stream, messages := gobStream(t)
	client, server := net.Pipe()
	cc := &countingConn{Conn: client}
	// The far end echoes everything it reads.
	go func() {
		_, _ = io.Copy(server, server)
		server.Close()
	}()
	errc := make(chan error, 1)
	go func() {
		_, err := cc.Write(stream)
		errc <- err
	}()
	got := make([]byte, len(stream))
	if _, err := io.ReadFull(cc, got); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	cc.Close()
	if !bytes.Equal(got, stream) {
		t.Fatal("echo differs from what was sent")
	}
	bytesTotal, frames := cc.totals()
	if want := uint64(2 * len(stream)); bytesTotal != want {
		t.Errorf("counted %d bytes, want %d", bytesTotal, want)
	}
	if want := uint64(2 * messages); frames != want {
		t.Errorf("counted %d frames, want %d", frames, want)
	}
}

func TestDeriveKeyIsFixedBySeed(t *testing.T) {
	a, err := deriveKey(7, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := deriveKey(7, 512)
	if err != nil {
		t.Fatal(err)
	}
	c, err := deriveKey(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) != 0 {
		t.Error("the same seed derived two different keys")
	}
	if a.N.Cmp(c.N) == 0 {
		t.Error("different seeds derived the same key")
	}
	if a.Bits() != 512 {
		t.Errorf("derived a %d-bit modulus, want 512", a.Bits())
	}
}

func TestLogWatcherSignalsListenAndSession(t *testing.T) {
	w := &logWatcher{addr: make(chan string, 1), planned: make(chan struct{}, 1)}
	// A session line before the start line is not the session's; one
	// after the first is discarded (the channel holds one signal).
	log := `{"msg":"session plan solved","profile":"privacy-max"}` + "\n" +
		`{"msg":"ppserver started","addr":"127.0.0.1:4242"}` + "\n" +
		`not json` + "\n" +
		`{"msg":"session opened"}` + "\n" +
		`{"msg":"session plan solved","profile":"privacy-max"}` + "\n" +
		`{"msg":"session plan solved"}` + "\n"
	// Feed the log in small pieces, so lines arrive split across writes.
	for i := 0; i < len(log); i += 7 {
		chunk := log[i:min(i+7, len(log))]
		if n, err := w.Write([]byte(chunk)); err != nil || n != len(chunk) {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	select {
	case addr := <-w.addr:
		if addr != "127.0.0.1:4242" {
			t.Errorf("addr = %q", addr)
		}
	default:
		t.Fatal("no address reported")
	}
	select {
	case <-w.planned:
	default:
		t.Fatal("session not signalled")
	}
}

func TestTraceOverheadCancelsQueueing(t *testing.T) {
	// A 450 ms queueing penalty on whichever request went second, and
	// 3 ms of tracing overhead.
	tracedFirst := []float64{3 - 450, 3 - 440, 3 - 470}
	tracedSecond := []float64{3 + 450, 3 + 460, 3 + 440}
	if got := traceOverhead([2][]float64{tracedFirst, tracedSecond}); got != 3 {
		t.Errorf("traceOverhead = %v, want 3", got)
	}
}

package main

import (
	"net"
	"sync/atomic"
)

// countingConn wraps the client's side of the session connection and
// counts what crosses it: bytes in each direction and gob messages in
// each direction. Every stream frame is one gob message (type
// descriptors are extra messages, sent once per session on first use of
// a type), so after the first request the message count is the frame
// count.
type countingConn struct {
	net.Conn
	bytesOut, bytesIn atomic.Uint64
	out, in           gobFramer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.bytesIn.Add(uint64(n))
		c.in.feed(p[:n])
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.bytesOut.Add(uint64(n))
		c.out.feed(p[:n])
	}
	return n, err
}

// totals returns the bytes and gob messages seen in both directions.
func (c *countingConn) totals() (bytes, frames uint64) {
	return c.bytesOut.Load() + c.bytesIn.Load(), c.out.count() + c.in.count()
}

// gobFramer finds gob message boundaries in one direction of a byte
// stream. A gob stream is a sequence of messages, each preceded by its
// length as a gob unsigned integer: one byte below 0x80, or else a byte
// holding the negated count of big-endian length bytes that follow.
// Only one goroutine may feed a framer (a connection has one reader and
// one writer at a time); count may be called from any goroutine.
type gobFramer struct {
	hdrLeft int    // length bytes of the current header still to read
	length  uint64 // length being assembled from header bytes
	body    uint64 // payload bytes of the current message still to skip
	frames  atomic.Uint64
}

func (f *gobFramer) feed(p []byte) {
	for len(p) > 0 {
		switch {
		case f.body > 0:
			n := uint64(len(p))
			if n > f.body {
				n = f.body
			}
			p = p[n:]
			f.body -= n
		case f.hdrLeft > 0:
			f.length = f.length<<8 | uint64(p[0])
			p = p[1:]
			if f.hdrLeft--; f.hdrLeft == 0 {
				f.body = f.length
				f.frames.Add(1)
			}
		default:
			b := p[0]
			p = p[1:]
			if b < 0x80 {
				f.body = uint64(b)
				f.frames.Add(1)
			} else {
				f.hdrLeft = int(-int8(b))
				f.length = 0
			}
		}
	}
}

func (f *gobFramer) count() uint64 { return f.frames.Load() }

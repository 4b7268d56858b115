package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// The wire protocol: every connection carries length-prefixed frames
//
//	[u32 big-endian length] [u8 op] [body...]
//
// where length counts the op byte plus the body. A control connection
// (coordinator ↔ worker) carries the handshake (hello/assign/ready), then
// two one-way streams: the coordinator's opSend stream down (fire and
// forget) and the worker's eager opDeliver stream up. A send is written
// down the *destination* rank's connection, and that worker pushes the
// body back up verbatim as an opDeliver — one worker visit, two socket
// crossings end to end; the coordinator banks deliveries in a per-rank
// inbox so Recv and RecvAny are local pops. The opFinish/opBye finish
// barrier ends the world, after which the same connection can host the
// next world's handshake — worker processes and their control
// connections are reusable (see the coordinator's worker pool).
//
// Any frame may be an opBatch container: back-to-back frames toward one
// destination, coalesced by Writer into a single multi-message frame
// (and a single TCP segment). Readers expand batches with forEachFrame;
// batches never nest.
//
// Message payloads inside opSend/opDeliver are spmd wire-codec bytes;
// workers forward them opaquely and only the coordinator encodes and
// decodes.
//
// The frame primitives and body codecs below are exported because the
// elastic backend's control plane speaks the same frames and bodies with
// its own op space: there is one frame reader, one body cursor, one hello
// codec and one message-header codec for both wire backends.
const (
	opHello byte = 1 + iota
	opAssign
	opReady
	opSend
	opDeliver
	opFinish
	opBye
	opBatch
)

// maxFrame bounds a frame so a corrupt or hostile length prefix cannot
// trigger a gigantic allocation.
const maxFrame = 1 << 30

// writerFlushBytes caps how much a Writer buffers before flushing
// inline: it bounds both coalescing memory and the size of one opBatch
// container.
const writerFlushBytes = 32 << 10

// AppendFrame appends a complete frame to buf (a reusable scratch
// buffer) so the caller can issue it as one Write.
func AppendFrame(buf []byte, op byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(body)))
	buf = append(buf, op)
	return append(buf, body...)
}

// frameScratch recycles WriteFrame's assembly buffers: handshake paths
// here and the elastic control plane write frames often enough that a
// per-frame make shows up in profiles.
var frameScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// WriteFrame sends one frame in a single Write call, assembling it in a
// pooled scratch buffer. For high-rate paths use Writer, which coalesces
// consecutive frames too.
func WriteFrame(w io.Writer, op byte, body []byte) error {
	bp := frameScratch.Get().(*[]byte)
	buf := AppendFrame((*bp)[:0], op, body)
	_, err := w.Write(buf)
	*bp = buf[:0]
	frameScratch.Put(bp)
	return err
}

// ReadFrame reads one frame. The returned body is freshly allocated and
// owned by the caller.
func ReadFrame(br *bufio.Reader) (op byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, err := frameBodyLen(hdr[:4])
	if err != nil {
		return 0, nil, err
	}
	body, err = readBody(br, nil, n)
	if err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}

// ReadFrameInto is ReadFrame for single-reader hot loops: the body lands
// in *scratch (grown as needed and retained across calls), so a loop
// that consumes or copies each frame before the next read allocates
// nothing in steady state. The returned body aliases *scratch and is
// only valid until the next call with the same scratch. The header is
// peeked out of the bufio buffer rather than read through io.ReadFull,
// whose interface indirection heap-allocates the 5-byte scratch on every
// call.
func ReadFrameInto(br *bufio.Reader, scratch *[]byte) (op byte, body []byte, err error) {
	hdr, err := br.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	n, err := frameBodyLen(hdr[:4])
	if err != nil {
		return 0, nil, err
	}
	op = hdr[4]
	br.Discard(5) //nolint:errcheck // 5 bytes are buffered: Peek succeeded
	body, err = readBody(br, *scratch, n)
	if err != nil {
		return 0, nil, err
	}
	*scratch = body
	return op, body, nil
}

// frameBodyLen validates a frame's length prefix and returns its body
// length (the length minus the op byte).
func frameBodyLen(prefix []byte) (int, error) {
	length := binary.BigEndian.Uint32(prefix)
	if length == 0 || length > maxFrame {
		return 0, fmt.Errorf("dist: invalid frame length %d", length)
	}
	return int(length - 1), nil
}

// readStep is how far readBody lets a body's buffer run ahead of the
// bytes actually received; bodies up to it are read in one step.
const readStep = 4 << 20

// readBody reads an n-byte frame body, reusing buf's capacity. Beyond
// that capacity the buffer grows only as bytes arrive — to readStep, then
// doubling — so a forged length prefix costs memory in proportion to the
// bytes its sender really wrote, not to the length it claims. Growth
// goes through append, so a scratch buffer reused across frames of
// creeping size reallocates geometrically, not per frame.
func readBody(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for have := 0; have < n; have = len(buf) {
		next := min(n, max(2*have, readStep))
		buf = slices.Grow(buf, next-have)[:next]
		if err := readFull(br, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readFull is io.ReadFull on the concrete reader: the destination slice
// stays on the caller's stack instead of escaping through the io.Reader
// interface.
func readFull(br *bufio.Reader, p []byte) error {
	for n := 0; n < len(p); {
		k, err := br.Read(p[n:])
		n += k
		if n < len(p) && err != nil {
			return err
		}
	}
	return nil
}

// pendingFrame reports whether another complete frame is already
// buffered in br — the flush-on-idle predicate: a reader that just
// handled a frame defers flushing its write side while the next frame
// can be processed without blocking, so back-to-back traffic coalesces,
// and flushes the moment it would otherwise go to sleep.
func pendingFrame(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	length := binary.BigEndian.Uint32(hdr)
	return length <= uint32(br.Buffered()-4)
}

// forEachFrame invokes fn once per logical frame: directly for a plain
// frame, and once per contained frame for an opBatch container. Batches
// never nest; sub-frame bodies alias the container's buffer.
func forEachFrame(op byte, body []byte, fn func(op byte, body []byte) error) error {
	if op != opBatch {
		return fn(op, body)
	}
	for len(body) > 0 {
		if len(body) < 4 {
			return fmt.Errorf("dist: truncated batch container")
		}
		length := binary.BigEndian.Uint32(body)
		if length == 0 || uint32(len(body)-4) < length {
			return fmt.Errorf("dist: invalid batched frame length %d", length)
		}
		sub := body[4 : 4+length]
		if sub[0] == opBatch {
			return fmt.Errorf("dist: nested batch container")
		}
		if err := fn(sub[0], sub[1:]); err != nil {
			return err
		}
		body = body[4+length:]
	}
	return nil
}

// Writer coalesces frames toward one connection. Write appends a frame
// to the pending buffer without touching the socket; Flush issues
// everything pending as one Write call — a single frame verbatim, or
// several wrapped in one opBatch container (one multi-message frame, one
// TCP segment). Writers are safe for concurrent use; the first I/O error
// latches and fails every subsequent call.
//
// The flush discipline is the caller's contract: every goroutine that
// Writes must Flush before blocking (Writer cannot know when the
// sender's burst is over). Write self-flushes past writerFlushBytes so
// pending data and batch frames stay bounded. The type is exported
// because the elastic backend's control plane shares the frame format.
type Writer struct {
	mu     sync.Mutex
	dst    io.Writer
	buf    []byte // 5 bytes reserved for a batch header, then pending frames
	frames int
	err    error
}

// NewWriter returns a coalescing frame writer over dst (an unbuffered
// connection: Writer is the buffer).
func NewWriter(dst io.Writer) *Writer {
	w := &Writer{dst: dst, buf: make([]byte, 5, 4096)}
	return w
}

// Write appends one frame to the pending buffer, flushing inline only
// when the buffer exceeds writerFlushBytes.
func (w *Writer) Write(op byte, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = AppendFrame(w.buf, op, body)
	w.frames++
	if len(w.buf) >= writerFlushBytes {
		return w.flushLocked()
	}
	return nil
}

// Flush issues all pending frames in one Write call; a no-op when
// nothing is pending.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.flushLocked()
}

// FlushN is Flush reporting how many frames it put on the wire (0 when
// nothing was pending; >1 means the frames went out coalesced in one
// opBatch container). The transport's trace instrumentation uses the
// count to record flush and batch events only for flushes that did work.
func (w *Writer) FlushN() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	n := w.frames
	return n, w.flushLocked()
}

func (w *Writer) flushLocked() error {
	if w.frames == 0 {
		return nil
	}
	out := w.buf[5:]
	if w.frames > 1 {
		binary.BigEndian.PutUint32(w.buf, uint32(1+len(w.buf)-5))
		w.buf[4] = opBatch
		out = w.buf
	}
	_, err := w.dst.Write(out)
	if cap(w.buf) > 4*writerFlushBytes {
		w.buf = make([]byte, 5, 4096)
	} else {
		w.buf = w.buf[:5]
	}
	w.frames = 0
	if err != nil {
		w.err = err
	}
	return err
}

// Err returns the writer's latched I/O error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Frame bodies are hand-rolled uvarint/fixed-width encodings, tiny
// cousins of the spmd payload codec.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Cursor reads fields off a frame body; the first truncation latches in
// Err so call sites check once.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of body b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

func (c *Cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("dist: truncated frame body at offset %d", c.off)
	}
}

// U32 reads a big-endian uint32.
func (c *Cursor) U32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (c *Cursor) U64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// str reads an appendString field.
func (c *Cursor) str() string {
	if c.err != nil {
		return ""
	}
	n, w := binary.Uvarint(c.b[c.off:])
	// Compare in uint64 space: a corrupt huge length must fail cleanly,
	// not overflow the int conversion into a passing bounds check (the
	// coordinators parse hello frames from arbitrary connections).
	if w <= 0 || n > uint64(len(c.b)-c.off-w) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off+w : c.off+w+int(n)])
	c.off += w + int(n)
	return s
}

// Rest returns the unread remainder of the body (nil after an error).
func (c *Cursor) Rest() []byte {
	if c.err != nil {
		return nil
	}
	return c.b[c.off:]
}

// Err reports the first truncation, if any.
func (c *Cursor) Err() error { return c.err }

// HelloBody is the hello frame's body (worker → coordinator, on both wire
// backends): the world token it authenticates with and its process id,
// which a spawning coordinator matches against the processes it started.
func HelloBody(token string, pid int) []byte {
	buf := appendString(nil, token)
	return binary.BigEndian.AppendUint64(buf, uint64(pid))
}

// ParseHello decodes a HelloBody.
func ParseHello(b []byte) (token string, pid int, err error) {
	c := NewCursor(b)
	token = c.str()
	pid = int(c.U64())
	return token, pid, c.Err()
}

// assign (coordinator → worker): rank and world size, sent only after all
// n hellos arrived — the world-start barrier's first half.
func assignBody(rank, n int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(rank))
	return binary.BigEndian.AppendUint32(buf, uint32(n))
}

func parseAssign(b []byte) (rank, n int, err error) {
	c := NewCursor(b)
	rank, n = int(c.U32()), int(c.U32())
	if err := c.Err(); err != nil {
		return 0, 0, err
	}
	if rank < 0 || rank >= n {
		return 0, 0, fmt.Errorf("dist: assigned rank %d outside world of %d", rank, n)
	}
	return rank, n, nil
}

// AppendMsgHeader appends the message header every message-carrying frame
// shares: a rank (the source — the destination is implied by which
// connection carries the frame), the tag, and the metered byte count; the
// opaque payload follows it. opSend sharing the opDeliver shape is what
// makes the destination worker's hot path a verbatim push: it republishes
// the body untouched under the opDeliver op.
func AppendMsgHeader(buf []byte, rank, tag, metered int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(rank))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(tag)))
	return binary.BigEndian.AppendUint64(buf, uint64(int64(metered)))
}

// ParseMsgHeader decodes an AppendMsgHeader header and returns the
// payload after it (aliasing b).
func ParseMsgHeader(b []byte) (rank, tag, metered int, payload []byte, err error) {
	c := NewCursor(b)
	rank = int(c.U32())
	tag = int(int64(c.U64()))
	metered = int(int64(c.U64()))
	return rank, tag, metered, c.Rest(), c.Err()
}

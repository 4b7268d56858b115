package elastic

import (
	"encoding/binary"
	"time"

	"repro/internal/backend/dist"
)

// The elastic control protocol rides the dist backend's length-prefixed
// frame format ([u32 BE length][u8 op][body], see dist.ReadFrame) and
// body codec with its own op space. One TCP connection per worker
// carries everything:
//
//   - handshake: hello (worker → coordinator: token, pid) answered by
//     welcome (worker id, heartbeat interval);
//   - data plane: enq (coordinator → worker: store a message in the
//     worker-side inbox of the rank it hosts) written together with the
//     pop (coordinator → worker) that retrieves it, answered by msg —
//     a pop only ever follows its own enq, so it never blocks
//     worker-side;
//   - liveness: ping answered by pong;
//   - teardown: finish answered by bye.
//
// Many pops and pings may be outstanding on a connection at once. The
// worker answers frames strictly in arrival order, so the coordinator
// keeps a FIFO of outstanding pops per connection and matches each msg
// to the head of that FIFO; no correlation ids are needed. Payloads are
// spmd wire-codec bytes; workers store and echo them opaquely.
const (
	opHello byte = 64 + iota
	opWelcome
	opEnq
	opPop
	opMsg
	opPing
	opPong
	opFinish
	opBye
)

// Elastic bodies reuse the dist codec: hello is dist.HelloBody, msg is a
// dist.AppendMsgHeader header plus payload, and enq is that same msg body
// behind a rank prefix — so a worker stores an enq body's tail verbatim
// as the msg it will answer a pop with.

// welcome (coordinator → worker): attach acknowledgment.
func welcomeBody(id int, heartbeat time.Duration) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(id))
	return binary.BigEndian.AppendUint64(buf, uint64(heartbeat))
}

func parseWelcome(b []byte) (id int, heartbeat time.Duration, err error) {
	c := dist.NewCursor(b)
	id = int(c.U32())
	heartbeat = time.Duration(c.U64())
	return id, heartbeat, c.Err()
}

// enq (coordinator → worker): store a message for a hosted rank.
func appendEnq(buf []byte, rank int, m msgRec) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(rank))
	buf = dist.AppendMsgHeader(buf, m.src, m.tag, m.metered)
	return append(buf, m.payload...)
}

// parseEnq decodes an enq body: the hosted rank, the message's source,
// and msg — the body's tail after the rank prefix, which is the msg body
// answering the pop that retrieves it (aliasing b).
func parseEnq(b []byte) (rank, src int, msg []byte, err error) {
	c := dist.NewCursor(b)
	rank = int(c.U32())
	msg = c.Rest()
	if err := c.Err(); err != nil {
		return 0, 0, nil, err
	}
	src, _, _, _, err = dist.ParseMsgHeader(msg)
	return rank, src, msg, err
}

// pop (coordinator → worker): request the head of the (rank, src) inbox.
func appendPop(buf []byte, rank, src int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(rank))
	return binary.BigEndian.AppendUint32(buf, uint32(src))
}

func parsePop(b []byte) (rank, src int, err error) {
	c := dist.NewCursor(b)
	rank, src = int(c.U32()), int(c.U32())
	return rank, src, c.Err()
}

// appendEnqPop appends the frames that deliver m to rank's host: the enq
// storing it in the worker's (rank, src) inbox and the pop that sends it
// straight back. Both are built in place, so the payload is copied once,
// into buf.
func appendEnqPop(buf []byte, rank int, m msgRec) []byte {
	at := len(buf)
	buf = appendEnq(append(buf, 0, 0, 0, 0, opEnq), rank, m)
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	at = len(buf)
	buf = appendPop(append(buf, 0, 0, 0, 0, opPop), rank, m.src)
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

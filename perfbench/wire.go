package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"

	"repro/internal/commit"
	"repro/internal/server"
)

// wireServer is internal/server serving a store on a loopback port.
type wireServer struct {
	srv  *server.Server
	addr string
	done chan error
}

// startServer serves st in the workload's write mode. The async mode
// takes recipesrv's defaults: default queue and batch, no flush
// interval, Reject backpressure.
func startServer(st *store) (*wireServer, error) {
	opts := server.Options{Mode: st.w.mode, IndexName: "P-ART"}
	if st.w.mode == server.ModeAsync {
		opts.Commit = commit.Options{Policy: commit.Reject}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: server.New(st.o, opts), addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { ws.done <- ws.srv.Serve(lis) }()
	return ws, nil
}

// stop drains the server; an unclean drain is an error.
func (ws *wireServer) stop() error {
	err := ws.srv.Shutdown()
	if serr := <-ws.done; err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// wireConn is one client connection. Requests are encoded with
// server.AppendFrame and replies parsed with server.ReadReply.
type wireConn struct {
	nc   *net.TCPConn
	br   *bufio.Reader
	out  []byte
	args [3][]byte
	key  []byte
	val  []byte
}

func dial(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := nc.(*net.TCPConn)
	return &wireConn{nc: tc, br: bufio.NewReaderSize(tc, 1<<16)}, nil
}

func dialAll(addr string) ([]*wireConn, error) {
	cs := make([]*wireConn, numWorkers)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			closeAll(cs[:i])
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

func closeAll(cs []*wireConn) {
	for _, c := range cs {
		c.nc.Close()
	}
}

// appendOp appends the request frame for o to c.out. v is the value a
// write stores.
func (c *wireConn) appendOp(led *ledger, o op, v uint64) {
	c.key = led.ordKey(c.key[:0], o.id)
	switch o.kind {
	case opRead:
		c.args[0], c.args[1] = cmdGet, c.key
		c.out = server.AppendFrame(c.out, c.args[:2])
		return
	case opInsert:
		c.args[0] = cmdSet
	case opUpdate:
		c.args[0] = cmdUpdate
	default:
		panic("perfbench: no wire encoding for scans")
	}
	c.val = strconv.AppendUint(c.val[:0], v, 10)
	c.args[1], c.args[2] = c.key, c.val
	c.out = server.AppendFrame(c.out, c.args[:3])
}

var (
	cmdGet    = []byte("GET")
	cmdSet    = []byte("SET")
	cmdUpdate = []byte("UPDATE")
)

// errReply is an error reply: an operation that failed, not a wrong
// answer.
type errReply string

func (e errReply) Error() string { return string(e) }

// readResult interprets a GET reply. A reply of the wrong shape is a
// correctness failure recorded on the ledger.
func readResult(led *ledger, rp server.Reply) (uint64, bool, error) {
	switch {
	case rp.Kind == server.ReplyInt:
		return uint64(rp.Int), true, nil
	case rp.Kind == server.ReplyBulk && rp.Null:
		return 0, false, nil
	case rp.Kind == server.ReplyError:
		return 0, false, errReply(rp.Str)
	}
	led.fail("GET answered with reply kind %q", rp.Kind)
	return 0, false, errors.New("malformed GET reply")
}

// writeResult interprets a SET or UPDATE reply.
func writeResult(led *ledger, rp server.Reply) error {
	switch {
	case rp.Kind == server.ReplySimple && string(rp.Str) == "OK":
		return nil
	case rp.Kind == server.ReplyError:
		return errReply(rp.Str)
	}
	led.fail("write answered with reply kind %q", rp.Kind)
	return errors.New("malformed write reply")
}

// wireFront is rung L4: one request outstanding per connection.
type wireFront struct{ conns []*wireConn }

func (f wireFront) roundTrip(wk *worker, o op, v uint64) (server.Reply, error) {
	c := f.conns[wk.idx]
	c.out = c.out[:0]
	c.appendOp(wk.st.led, o, v)
	if _, err := c.nc.Write(c.out); err != nil {
		return server.Reply{}, err
	}
	rp, err := server.ReadReply(c.br)
	if err != nil {
		wk.st.led.fail("connection %d: reply lost: %v", wk.idx, err)
	}
	return rp, err
}

func (f wireFront) read(wk *worker, id uint64) (uint64, bool, error) {
	rp, err := f.roundTrip(wk, op{kind: opRead, id: id}, 0)
	if err != nil {
		return 0, false, err
	}
	return readResult(wk.st.led, rp)
}

func (f wireFront) write(wk *worker, kind opKind, id, v uint64, ver uint32) error {
	rp, err := f.roundTrip(wk, op{kind: kind, id: id}, v)
	if err != nil {
		return err
	}
	if err := writeResult(wk.st.led, rp); err != nil {
		return err
	}
	wk.acked(kind, id, ver)
	return nil
}

func (wireFront) scan(*worker, uint64, int) error { panic("perfbench: no wire scans") }
func (wireFront) flush(*worker) error             { return nil }

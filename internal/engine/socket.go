// SocketTransport spans one logical clique across k OS processes
// (ranks), each executing a contiguous node shard, connected by a full
// mesh of TCP or Unix-domain stream sockets carrying length-prefixed
// ckptio frames (frame.go).
//
// Round protocol: every rank drains its workers' boxes into one round
// frame — the rank's complete message stream in the router's
// deterministic order — and broadcasts it to every peer, then rebuilds
// the complete inbox bank by replaying all k streams in rank order.
// Messages to a destination d therefore arrive source-ascending with
// per-source send order preserved (ranks own ascending node ranges),
// which is byte-for-byte the order MemTransport's scatter produces: the
// replay digest chain and quiescence detection work unchanged on every
// rank. Execution is still sharded — each rank runs handlers only for
// its own nodes — so the CPU and handler state scale out even though
// round traffic is fully replicated.
//
// Failure discipline: every read and write carries a deadline, every
// frame an integrity trailer, and every decoded message a source-range
// check, so a dropped, duplicated, reordered, truncated, or corrupted
// frame surfaces as a loud Exchange error — never as silently wrong
// traffic (see internal/faults for the injected proofs). When the
// local engine fails (handler error, context cancellation), it calls
// Abort, which best-effort notifies peers so their blocked Exchange
// calls fail instead of hanging until the deadline.
package engine

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
)

// defaultSocketTimeout bounds every socket operation (dial, handshake,
// frame read/write) when SocketConfig.Timeout is zero.
const defaultSocketTimeout = 30 * time.Second

// TransportHooks is the fault-injection seam of the socket transport,
// mirroring TestHooks: nil hooks cost one nil check per frame write.
// Install via SetTransportHooks before any engine run starts; the
// internal/faults package compiles its transport fault plans onto it.
type TransportHooks struct {
	// FrameOut intercepts every outgoing frame to a peer and returns
	// the frames actually written: return nil to drop the frame, the
	// original plus a copy to duplicate it, or a modified byte slice to
	// corrupt it.
	FrameOut func(srcRank, dstRank int, kind, seq uint64, frame []byte) [][]byte
	// KillConn, when it returns true, closes the connection to dstRank
	// before the frame is written — a mid-exchange connection kill.
	KillConn func(srcRank, dstRank int, kind, seq uint64) bool
}

var transportHooks *TransportHooks

// SetTransportHooks installs hooks (nil uninstalls). Like
// SetTestHooks, it must only be called while no engine is running.
func SetTransportHooks(h *TransportHooks) { transportHooks = h }

// SocketConfig configures one rank of a socket-transport clique.
type SocketConfig struct {
	// Network is "tcp" or "unix".
	Network string
	// Addrs lists every rank's listen address; Addrs[i] is rank i's.
	// All ranks must agree on this list — it defines the cluster.
	Addrs []string
	// Rank is this process's index into Addrs.
	Rank int
	// Timeout bounds each socket operation (dial, handshake, one frame
	// read or write). Zero selects 30s.
	Timeout time.Duration
}

// socketPeer is one established peer connection.
type socketPeer struct {
	rank   int
	lo, hi int // peer's node range, validated at handshake
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
}

// SocketTransport implements Transport over a full socket mesh. Build
// one per rank with NewSocketTransport (or LoopbackCluster for
// in-process tests), hand it to engine.Options.Transport or
// clique.WithTransport, and run the same deterministic kernel on every
// rank.
type SocketTransport struct {
	cfg    SocketConfig
	ln     net.Listener
	tmpDir string // LoopbackCluster's unix socket dir, removed on Close

	b      *Binding
	n      int
	lo, hi int
	peers  []*socketPeer

	outMsgs   []wireMsg   // local round stream scratch, reused
	inMsgs    [][]wireMsg // per-rank decoded streams, reused
	gatherSeq uint64
	broken    error
	closed    bool
}

// NewSocketTransport validates cfg and, for multi-rank cliques, starts
// listening on this rank's address. The peer mesh is established when
// the engine calls Bind.
func NewSocketTransport(cfg SocketConfig) (*SocketTransport, error) {
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("engine: socket transport network %q (want tcp or unix)", cfg.Network)
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("engine: socket transport needs at least one rank address")
	}
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Addrs) {
		return nil, fmt.Errorf("engine: socket transport rank %d outside [0, %d)", cfg.Rank, len(cfg.Addrs))
	}
	t := &SocketTransport{cfg: cfg}
	if len(cfg.Addrs) > 1 {
		ln, err := net.Listen(cfg.Network, cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("engine: rank %d listening on %s %s: %w", cfg.Rank, cfg.Network, cfg.Addrs[cfg.Rank], err)
		}
		t.ln = ln
	}
	return t, nil
}

// Name identifies the transport by its network ("socket-tcp",
// "socket-unix").
func (t *SocketTransport) Name() string { return "socket-" + t.cfg.Network }

// Ranks returns the cluster width k.
func (t *SocketTransport) Ranks() int { return len(t.cfg.Addrs) }

// Partition returns this rank's node range — the ceil partition of
// [0, n) across the cluster's ranks.
func (t *SocketTransport) Partition(n int) (lo, hi int) {
	t.n = n
	t.lo, t.hi = RankBounds(n, t.cfg.Rank, len(t.cfg.Addrs))
	return t.lo, t.hi
}

func (t *SocketTransport) timeout() time.Duration {
	if t.cfg.Timeout > 0 {
		return t.cfg.Timeout
	}
	return defaultSocketTimeout
}

// Bind establishes the full peer mesh: this rank accepts one
// connection from every higher rank and dials every lower rank
// (retrying until the timeout, so cluster processes may start in any
// order), exchanging validated hello frames on each connection.
func (t *SocketTransport) Bind(b *Binding) error {
	t.b = b
	if b.N() != t.n {
		return fmt.Errorf("engine: transport partitioned for n=%d but bound to an engine of n=%d", t.n, b.N())
	}
	k := len(t.cfg.Addrs)
	t.peers = make([]*socketPeer, k)
	t.inMsgs = make([][]wireMsg, k)
	if k == 1 {
		return nil
	}
	hello := helloBody{
		version: frameVersion,
		n:       uint64(t.n),
		ranks:   uint64(k),
		rank:    uint64(t.cfg.Rank),
		lo:      uint64(t.lo),
		hi:      uint64(t.hi),
	}
	deadline := time.Now().Add(t.timeout())
	errc := make(chan error, 2)
	go func() { errc <- t.acceptPeers(deadline, hello) }()
	go func() { errc <- t.dialPeers(deadline, hello) }()
	var first error
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		t.Close()
		return first
	}
	return nil
}

// acceptPeers accepts and handshakes one connection from every rank
// above this one.
func (t *SocketTransport) acceptPeers(deadline time.Time, hello helloBody) error {
	k := len(t.cfg.Addrs)
	if dl, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(deadline)
	}
	for need := k - 1 - t.cfg.Rank; need > 0; need-- {
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("engine: rank %d accepting peers: %w", t.cfg.Rank, err)
		}
		p, err := t.handshake(conn, hello, deadline, false)
		if err != nil {
			conn.Close()
			return err
		}
		if p.rank <= t.cfg.Rank {
			conn.Close()
			return fmt.Errorf("engine: rank %d accepted a connection claiming rank %d (dials go low-to-high)", t.cfg.Rank, p.rank)
		}
		if t.peers[p.rank] != nil {
			conn.Close()
			return fmt.Errorf("engine: rank %d accepted a duplicate connection from rank %d", t.cfg.Rank, p.rank)
		}
		t.peers[p.rank] = p
	}
	return nil
}

// dialPeers dials and handshakes every rank below this one, retrying
// dials until the deadline so ranks can start in any order.
func (t *SocketTransport) dialPeers(deadline time.Time, hello helloBody) error {
	for j := 0; j < t.cfg.Rank; j++ {
		conn, err := t.dialRetry(j, deadline)
		if err != nil {
			return err
		}
		p, err := t.handshake(conn, hello, deadline, true)
		if err != nil {
			conn.Close()
			return err
		}
		if p.rank != j {
			conn.Close()
			return fmt.Errorf("engine: rank %d dialed %s expecting rank %d, got rank %d", t.cfg.Rank, t.cfg.Addrs[j], j, p.rank)
		}
		t.peers[j] = p
	}
	return nil
}

func (t *SocketTransport) dialRetry(j int, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	for {
		conn, err := d.Dial(t.cfg.Network, t.cfg.Addrs[j])
		if err == nil {
			return conn, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("engine: rank %d dialing rank %d at %s %s: %w", t.cfg.Rank, j, t.cfg.Network, t.cfg.Addrs[j], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// handshake exchanges hello frames on a fresh connection (the dialer
// speaks first) and validates the peer's view of the cluster.
func (t *SocketTransport) handshake(conn net.Conn, hello helloBody, deadline time.Time, dialer bool) (*socketPeer, error) {
	p := &socketPeer{
		rank: -1,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
	sendHello := func() error {
		conn.SetWriteDeadline(deadline)
		if _, err := p.bw.Write(encodeHello(hello)); err != nil {
			return fmt.Errorf("engine: rank %d sending hello: %w", t.cfg.Rank, err)
		}
		if err := p.bw.Flush(); err != nil {
			return fmt.Errorf("engine: rank %d sending hello: %w", t.cfg.Rank, err)
		}
		return nil
	}
	recvHello := func() error {
		conn.SetReadDeadline(deadline)
		h, cr, err := readFrame(p.br)
		if err != nil {
			return fmt.Errorf("engine: rank %d reading hello: %w", t.cfg.Rank, err)
		}
		if h.kind != frameHello {
			return fmt.Errorf("engine: rank %d expected a hello frame, got kind %d", t.cfg.Rank, h.kind)
		}
		body, err := decodeHelloBody(cr)
		if err != nil {
			return fmt.Errorf("engine: rank %d decoding hello: %w", t.cfg.Rank, err)
		}
		if err := t.validateHello(body); err != nil {
			return err
		}
		p.rank = int(body.rank)
		p.lo, p.hi = int(body.lo), int(body.hi)
		return nil
	}
	steps := []func() error{recvHello, sendHello}
	if dialer {
		steps = []func() error{sendHello, recvHello}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// validateHello rejects a peer whose view of the cluster (wire
// version, size, rank count, node partition) disagrees with ours —
// misconfigured meshes fail at handshake, not mid-round.
func (t *SocketTransport) validateHello(h helloBody) error {
	k := len(t.cfg.Addrs)
	switch {
	case h.version != frameVersion:
		return fmt.Errorf("engine: peer speaks frame version %d, this build speaks %d", h.version, frameVersion)
	case h.n != uint64(t.n):
		return fmt.Errorf("engine: peer clique has n=%d, local n=%d", h.n, t.n)
	case h.ranks != uint64(k):
		return fmt.Errorf("engine: peer mesh has %d ranks, local mesh %d", h.ranks, k)
	case h.rank == uint64(t.cfg.Rank):
		return fmt.Errorf("engine: peer claims our own rank %d", h.rank)
	case h.rank >= uint64(k):
		return fmt.Errorf("engine: peer claims rank %d outside [0, %d)", h.rank, k)
	}
	lo, hi := RankBounds(t.n, int(h.rank), k)
	if h.lo != uint64(lo) || h.hi != uint64(hi) {
		return fmt.Errorf("engine: peer rank %d claims nodes [%d, %d), partition says [%d, %d)", h.rank, h.lo, h.hi, lo, hi)
	}
	return nil
}

// writeFrame writes one frame to a peer through the fault-injection
// hooks, with a write deadline.
func (t *SocketTransport) writeFrame(p *socketPeer, kind, seq uint64, frame []byte, deadline time.Time) error {
	frames := [][]byte{frame}
	if h := transportHooks; h != nil {
		if h.KillConn != nil && h.KillConn(t.cfg.Rank, p.rank, kind, seq) {
			p.conn.Close()
			return fmt.Errorf("engine: rank %d connection to rank %d killed mid-exchange (fault injection)", t.cfg.Rank, p.rank)
		}
		if h.FrameOut != nil {
			frames = h.FrameOut(t.cfg.Rank, p.rank, kind, seq, frame)
		}
	}
	p.conn.SetWriteDeadline(deadline)
	for _, f := range frames {
		if _, err := p.bw.Write(f); err != nil {
			return fmt.Errorf("engine: rank %d writing frame to rank %d: %w", t.cfg.Rank, p.rank, err)
		}
	}
	if err := p.bw.Flush(); err != nil {
		return fmt.Errorf("engine: rank %d writing frame to rank %d: %w", t.cfg.Rank, p.rank, err)
	}
	return nil
}

// readPeerFrame reads one frame from a peer and validates its
// provenance (kind, claimed rank, sequence number). An abort frame
// surfaces the peer's error; a stale or replayed frame (duplicated or
// reordered by a faulty fabric) fails the sequence check loudly.
func (t *SocketTransport) readPeerFrame(p *socketPeer, wantKind, wantSeq uint64, deadline time.Time) (*ckptio.Reader, error) {
	p.conn.SetReadDeadline(deadline)
	h, cr, err := readFrame(p.br)
	if err != nil {
		return nil, fmt.Errorf("engine: rank %d reading from rank %d: %w", t.cfg.Rank, p.rank, err)
	}
	if h.kind == frameAbort {
		msg, derr := decodeAbortBody(cr)
		if derr != nil {
			msg = fmt.Sprintf("(undecodable abort frame: %v)", derr)
		}
		return nil, fmt.Errorf("engine: peer rank %d aborted: %s", h.rank, msg)
	}
	if h.kind != wantKind || h.rank != uint64(p.rank) || h.seq != wantSeq {
		return nil, fmt.Errorf("engine: rank %d got frame (kind=%d rank=%d seq=%d) from rank %d, want (kind=%d rank=%d seq=%d) — duplicated or reordered frame",
			t.cfg.Rank, h.kind, h.rank, h.seq, p.rank, wantKind, p.rank, wantSeq)
	}
	return cr, nil
}

// fail records the first fatal transport error; all later operations
// return it.
func (t *SocketTransport) fail(err error) error {
	if t.broken == nil {
		t.broken = err
	}
	return t.broken
}

// Exchange completes round r: drain the local boxes into one round
// frame, broadcast it to every peer (writers and readers run
// concurrently per peer, so full buffers cannot deadlock the mesh),
// then rebuild the complete inbox bank by replaying all k streams in
// rank order and swap the banks. Returns the global message count.
func (t *SocketTransport) Exchange(r core.Round, localMsgs uint64) (uint64, error) {
	if t.broken != nil {
		return 0, t.broken
	}
	b := t.b
	t.outMsgs = t.outMsgs[:0]
	b.DrainOut(func(dst, src core.NodeID, payload uint64) {
		t.outMsgs = append(t.outMsgs, wireMsg{dst: dst, src: src, payload: payload})
	})
	if uint64(len(t.outMsgs)) != localMsgs {
		return 0, t.fail(fmt.Errorf("engine: rank %d drained %d messages in round %d but the engine counted %d", t.cfg.Rank, len(t.outMsgs), r, localMsgs))
	}
	k := len(t.cfg.Addrs)
	if k > 1 {
		frame := encodeRound(uint64(t.cfg.Rank), r, t.outMsgs)
		deadline := time.Now().Add(t.timeout())
		errs := make([]error, 2*k)
		var wg sync.WaitGroup
		for j, p := range t.peers {
			if p == nil {
				continue
			}
			wg.Add(2)
			go func(j int, p *socketPeer) {
				defer wg.Done()
				errs[2*j] = t.writeFrame(p, frameRound, uint64(r), frame, deadline)
			}(j, p)
			go func(j int, p *socketPeer) {
				defer wg.Done()
				cr, err := t.readPeerFrame(p, frameRound, uint64(r), deadline)
				if err != nil {
					errs[2*j+1] = err
					return
				}
				msgs, err := decodeRoundBody(cr, t.inMsgs[j], t.n, p.lo, p.hi)
				if err != nil {
					errs[2*j+1] = fmt.Errorf("engine: rank %d decoding round %d frame from rank %d: %w", t.cfg.Rank, r, j, err)
					return
				}
				t.inMsgs[j] = msgs
			}(j, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, t.fail(err)
			}
		}
	}
	b.ClearSpare()
	var total uint64
	for j := 0; j < k; j++ {
		stream := t.outMsgs
		if j != t.cfg.Rank {
			stream = t.inMsgs[j]
		}
		total += uint64(len(stream))
		for _, m := range stream {
			b.Deliver(m.dst, m.src, m.payload)
		}
	}
	b.FinishRound()
	return total, nil
}

// AllGatherRows synchronizes a row-major n x rowLen slab: each rank
// broadcasts its own rows and copies every peer's rows into place.
// Gather frames carry their own monotonic sequence numbers, so a rank
// that skipped a harvest (a diverged kernel) fails the exchange
// loudly.
func (t *SocketTransport) AllGatherRows(flat []int64, rowLen int) error {
	if rowLen <= 0 {
		return fmt.Errorf("engine: AllGatherRows rowLen %d (want > 0)", rowLen)
	}
	if len(flat) != t.n*rowLen {
		return fmt.Errorf("engine: AllGatherRows slab holds %d words, want n*rowLen = %d*%d", len(flat), t.n, rowLen)
	}
	if len(t.cfg.Addrs) == 1 {
		return nil
	}
	if t.broken != nil {
		return t.broken
	}
	seq := t.gatherSeq
	t.gatherSeq++
	frame := encodeGather(uint64(t.cfg.Rank), seq, rowLen, t.lo, t.hi, flat[t.lo*rowLen:t.hi*rowLen])
	deadline := time.Now().Add(t.timeout())
	k := len(t.cfg.Addrs)
	errs := make([]error, 2*k)
	var wg sync.WaitGroup
	for j, p := range t.peers {
		if p == nil {
			continue
		}
		wg.Add(2)
		go func(j int, p *socketPeer) {
			defer wg.Done()
			errs[2*j] = t.writeFrame(p, frameGather, seq, frame, deadline)
		}(j, p)
		go func(j int, p *socketPeer) {
			defer wg.Done()
			cr, err := t.readPeerFrame(p, frameGather, seq, deadline)
			if err != nil {
				errs[2*j+1] = err
				return
			}
			rows, err := decodeGatherBody(cr, rowLen, p.lo, p.hi)
			if err != nil {
				errs[2*j+1] = fmt.Errorf("engine: rank %d decoding gather frame from rank %d: %w", t.cfg.Rank, j, err)
				return
			}
			copy(flat[p.lo*rowLen:p.hi*rowLen], rows)
		}(j, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return t.fail(err)
		}
	}
	return nil
}

// Abort marks the transport broken and best-effort notifies every peer
// with an abort frame carrying the reason, so their blocked Exchange
// reads fail with the real error instead of a timeout.
func (t *SocketTransport) Abort(reason error) {
	t.fail(fmt.Errorf("engine: rank %d socket transport aborted: %w", t.cfg.Rank, reason))
	if len(t.cfg.Addrs) == 1 {
		return
	}
	frame := encodeAbort(uint64(t.cfg.Rank), reason)
	deadline := time.Now().Add(2 * time.Second)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.conn.SetWriteDeadline(deadline)
		p.bw.Write(frame) //nolint:errcheck // best-effort notification
		p.bw.Flush()      //nolint:errcheck
	}
}

// Close tears down every peer connection and the listener; for
// loopback clusters it also removes the temporary unix socket
// directory. Idempotent.
func (t *SocketTransport) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.fail(errors.New("engine: socket transport closed"))
	var first error
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if err := p.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	if t.ln != nil {
		if err := t.ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	if t.tmpDir != "" {
		os.RemoveAll(t.tmpDir) //nolint:errcheck // best-effort temp cleanup
	}
	return first
}

// LoopbackCluster builds the k linked transports of one logical clique
// on loopback sockets — TCP on 127.0.0.1 ephemeral ports or
// unix-domain sockets in a fresh temp directory. Every returned
// transport must be bound to its own engine (typically one goroutine
// per rank in tests, or one process handed its rank's config). Closing
// the transports releases the listeners and, for unix, the socket
// files.
func LoopbackCluster(ranks int, network string, timeout time.Duration) ([]Transport, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("engine: loopback cluster needs >= 1 rank, got %d", ranks)
	}
	addrs := make([]string, ranks)
	lns := make([]net.Listener, ranks)
	tmpDir := ""
	fail := func(err error) ([]Transport, error) {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
		return nil, err
	}
	switch network {
	case "tcp":
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("engine: loopback cluster rank %d: %w", i, err))
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
	case "unix":
		dir, err := os.MkdirTemp("", "ccsock")
		if err != nil {
			return fail(fmt.Errorf("engine: loopback cluster socket dir: %w", err))
		}
		tmpDir = dir
		for i := range lns {
			path := filepath.Join(dir, fmt.Sprintf("rank%d.sock", i))
			ln, err := net.Listen("unix", path)
			if err != nil {
				return fail(fmt.Errorf("engine: loopback cluster rank %d: %w", i, err))
			}
			lns[i] = ln
			addrs[i] = path
		}
	default:
		return nil, fmt.Errorf("engine: loopback cluster network %q (want tcp or unix)", network)
	}
	ts := make([]Transport, ranks)
	for i := range ts {
		ts[i] = &SocketTransport{
			cfg:    SocketConfig{Network: network, Addrs: addrs, Rank: i, Timeout: timeout},
			ln:     lns[i],
			tmpDir: tmpDir,
		}
	}
	return ts, nil
}

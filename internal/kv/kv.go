package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/report"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// Wire protocol. kv traffic runs on its own match context (the mpi layer
// owns contexts 1 and 2), with the message type in the tag's top bits and
// a per-client operation sequence below, so data phases of concurrent
// operations never cross-match:
//
//	match = | 16 bits ctxKV | 16 bits src rank | 3 bits type | 29 bits seq |
//
// An operation is a small eager header (request), a bulk value transfer
// sized past the rendezvous threshold so it crosses the pinning path, and
// for puts a small eager ack. Gets complete at value arrival, puts at the
// ack — the RDMA-read / RDMA-write shapes of an in-memory KV tier.
const (
	ctxKV    = 3
	srcShift = 32
	ctxShift = 48

	tagReq   = 1 << 29
	tagData  = 2 << 29
	tagReply = 3 << 29
	seqMask  = 1<<29 - 1

	headerBytes = 32
	ackBytes    = 16
)

func kvMatch(src int, tag uint32) uint64 {
	return uint64(ctxKV)<<ctxShift | uint64(uint16(src))<<srcShift | uint64(tag)
}

// anySrcMask matches any source rank (the server's header receive).
func anySrcMask() uint64 { return ^uint64(0) &^ (uint64(0xffff) << srcShift) }

type opKind uint8

const (
	opGet opKind = iota + 1
	opPut
	opShut
)

// Tenant describes one traffic class. Clients are assigned round-robin:
// client j (the j'th non-server rank) serves tenant j % len(Tenants).
type Tenant struct {
	// Name labels the tenant in metrics and SLO blocks.
	Name string
	// Ops is how many operations each of the tenant's clients issues.
	Ops int
	// Rate is the open-loop arrival rate per client, in operations per
	// second of simulated time. Arrivals are drawn from a seeded
	// exponential stream and do NOT wait for completions — when the
	// backend falls behind, queueing delay (and admission rejection) is
	// real.
	Rate float64
	// GetFrac is the read fraction of the mix (0.7 = 70% gets).
	GetFrac float64
	// MaxInflight bounds accepted-but-incomplete operations per client —
	// the admission-control knob. Arrivals past the bound are rejected
	// with a typed *omx.OverloadError instead of queueing without limit.
	MaxInflight int
}

// Config shapes one kvserve run. Ranks 0..Servers-1 are storage servers;
// every remaining rank is a client.
type Config struct {
	// Servers is the storage-server rank count.
	Servers int
	// Keys is the per-tenant key-space size. Key k lives on server
	// k % Servers, at slot k / Servers of that server's per-tenant heap.
	Keys int
	// ValueBytes is the value size. Sizes past the eager threshold
	// (32 KiB by default) take the rendezvous path, so value buffers are
	// pinned — or ODP-faulted — under the configured policy.
	ValueBytes int
	// Theta is the Zipfian key-popularity skew.
	Theta float64
	// Workers is the data-phase worker-process count per endpoint, client
	// and server alike.
	Workers int
	// Tenants is the traffic-class list (at least one).
	Tenants []Tenant
	// ChurnBytes, when positive, runs a memory hog on every server rank:
	// a background process dirtying this much buffer every ChurnPeriod,
	// overcommitting the node's frame budget so reclaim pressure on the
	// value heaps is emergent (vm's reclaim machinery). The hog writes one
	// shared dirt page by reference into each whole page of its buffer
	// and copies only a final partial page, never past ChurnBytes.
	ChurnBytes int
	// ChurnPeriod is the hog's sweep period (default 200µs).
	ChurnPeriod sim.Duration
	// Replication is the copies-per-key count (default 1, unreplicated).
	// Key k's replica set is servers (k%Servers + i) % Servers for
	// i < Replication; clients read from the primary and fail over to the
	// next replica on a typed ErrPeerDead/ErrTimeout, and write every
	// replica (an operation succeeds when at least one ack lands).
	Replication int
	// FailoverTimeout bounds how long a client waits on a posted data/ack
	// receive before cancelling it (ErrTimeout) and failing over. Only
	// armed when Replication > 1; default 20ms.
	FailoverTimeout sim.Duration
	// OutageStart/OutageEnd bound the outage observation window in
	// simulated time from run start: operations scheduled inside it also
	// record into the separate outage histograms, so an SLO can gate the
	// tail while a replica is down. Disabled when OutageEnd is zero.
	OutageStart sim.Duration
	OutageEnd   sim.Duration
}

func (cfg Config) workers() int {
	if cfg.Workers <= 0 {
		return 1
	}
	return cfg.Workers
}

func (cfg Config) churnPeriod() sim.Duration {
	if cfg.ChurnPeriod <= 0 {
		return 200 * sim.Microsecond
	}
	return cfg.ChurnPeriod
}

// slots is the per-tenant heap size in quotient groups on every server
// (uniform, ceil(Keys/Servers), so heap layout does not depend on the
// server index). Each group holds replicas() values — see slotOf.
func (cfg Config) slots() int { return (cfg.Keys + cfg.Servers - 1) / cfg.Servers }

// replicas is the effective replication factor, clamped to the server
// count (replica sets are distinct servers).
func (cfg Config) replicas() int {
	r := cfg.Replication
	if r < 1 {
		r = 1
	}
	if r > cfg.Servers {
		r = cfg.Servers
	}
	return r
}

func (cfg Config) failoverTimeout() sim.Duration {
	if cfg.FailoverTimeout <= 0 {
		return 20 * sim.Millisecond
	}
	return cfg.FailoverTimeout
}

// replicaIndex is which copy of key k server rank holds (0 = primary), or
// -1 when the rank is not in k's replica set.
func (cfg Config) replicaIndex(rank, k int) int {
	ri := (rank - k%cfg.Servers + cfg.Servers) % cfg.Servers
	if ri >= cfg.replicas() {
		return -1
	}
	return ri
}

// slotOf is key k's value slot in server rank's per-tenant heap: quotient
// group k/Servers, copy replicaIndex within it. Distinct keys replicated
// onto one server never collide; with Replication 1 it reduces to the
// historical k/Servers layout.
func (cfg Config) slotOf(rank, k int) int {
	return k/cfg.Servers*cfg.replicas() + cfg.replicaIndex(rank, k)
}

// inOutage reports whether an operation scheduled at t falls inside the
// configured outage observation window.
func (cfg Config) inOutage(t sim.Time) bool {
	return cfg.OutageEnd > 0 && t >= sim.Time(cfg.OutageStart) && t < sim.Time(cfg.OutageEnd)
}

// Stats is one rank's measurement record, stashed on the case cell at the
// end of the run and merged (in rank order, so deterministically) by
// Collect. Latencies are measured from the operation's scheduled open-loop
// arrival, not from dispatch — the coordinated-omission correction — in
// simulated nanoseconds.
type Stats struct {
	Rank   int
	Tenant int // -1 for servers
	Get    report.Hist
	Put    report.Hist
	// GetOutage/PutOutage are the windowed views of Get/Put for operations
	// scheduled inside the configured outage window (empty otherwise).
	GetOutage report.Hist
	PutOutage report.Hist
	// Issued counts arrivals, OK completions, Rejected admission drops,
	// Errors protocol aborts, BadVals GET payloads failing validation.
	Issued   int
	OK       int
	Rejected int
	Errors   int
	BadVals  int
	// Failovers counts replica attempts abandoned on a typed
	// ErrPeerDead/ErrTimeout (reads retried elsewhere, writes that lost a
	// copy but still acked).
	Failovers int
}

// Sink is the slice of scenario.CaseRun the workload needs; keeping it an
// interface avoids an import cycle (scenario imports kv).
type Sink interface {
	Stash(key string, v any)
	Note(format string, args ...any)
}

// StashKey names rank r's Stats record in the case stash.
func StashKey(r int) string { return fmt.Sprintf("kv/rank%d", r) }

// mix derives a per-(rank, stream) RNG seed from the run seed.
func mix(seed int64, rank, salt int) int64 {
	return seed ^ int64((uint64(rank)+1)*(uint64(salt)+3)*0x9e3779b97f4a7c15)
}

// sig returns the 8-byte value signature for (tenant, key): written at
// the head of every stored value, checked on every GET.
func sig(tenant, key int) uint64 {
	return uint64(tenant+1)<<40 ^ uint64(key+1)*0x9e3779b97f4a7c15
}

// op is one client operation in flight between dispatcher and workers.
type op struct {
	kind        opKind
	tenant      int
	key         int
	seq         uint32
	scheduledAt sim.Time
}

// Run is the per-rank workload body: servers allocate and prefill their
// value heaps, everyone meets at a barrier, clients drive open-loop
// traffic until their schedules drain, then shut the servers down. It is
// shaped as a scenario.Workload body (wrap it in a closure carrying the
// Config).
func Run(c *mpi.Comm, sink Sink, seed int64, cfg Config) {
	if cfg.Servers <= 0 || cfg.Servers >= c.Size() {
		panic(fmt.Sprintf("kv: need 1 <= Servers < ranks, got Servers=%d ranks=%d", cfg.Servers, c.Size()))
	}
	if len(cfg.Tenants) == 0 {
		panic("kv: need at least one tenant")
	}
	if c.Rank() < cfg.Servers {
		runServer(c, sink, cfg)
	} else {
		runClient(c, sink, seed, cfg)
	}
}

func mustMalloc(ep *omx.Endpoint, n int) vm.Addr {
	a, err := ep.Malloc(n)
	if err != nil {
		panic(fmt.Sprintf("kv: malloc(%d): %v", n, err))
	}
	return a
}

func writeHeader(ep *omx.Endpoint, a vm.Addr, kind opKind, tenant, key int, seq uint32) {
	var b [headerBytes]byte
	b[0] = byte(kind)
	b[1] = byte(tenant)
	binary.LittleEndian.PutUint32(b[4:], uint32(key))
	binary.LittleEndian.PutUint32(b[8:], seq)
	if err := ep.AS.Write(a, b[:]); err != nil {
		panic(fmt.Sprintf("kv: header write: %v", err))
	}
}

// serverOp is a parsed request handed from the server's header dispatcher
// to its data-phase workers.
type serverOp struct {
	kind   opKind
	tenant int
	key    int
	seq    uint32
	src    int
}

func runServer(c *mpi.Comm, sink Sink, cfg Config) {
	rank := c.Rank()
	ep := c.Endpoint()
	eng := ep.Node().Eng
	st := &Stats{Rank: rank, Tenant: -1}
	slots := cfg.slots()

	// Value heaps: one contiguous per-tenant arena, prefilled with
	// signed values so the first GET of any key validates — on every
	// replica (slotOf gives each copy its own slot, so replicated keys
	// never collide). The prefill writes touch every frame, so the heaps
	// are resident (and, under a frame budget, already contended) before
	// the serving clock starts.
	heaps := make([]vm.Addr, len(cfg.Tenants))
	val := make([]byte, cfg.ValueBytes)
	for i := range val {
		val[i] = byte(i>>8) ^ byte(i)
	}
	for t := range cfg.Tenants {
		heaps[t] = mustMalloc(ep, slots*cfg.replicas()*cfg.ValueBytes)
		for k := 0; k < cfg.Keys; k++ {
			if cfg.replicaIndex(rank, k) < 0 {
				continue
			}
			binary.LittleEndian.PutUint64(val[:8], sig(t, k))
			a := heaps[t] + vm.Addr(cfg.slotOf(rank, k)*cfg.ValueBytes)
			if err := ep.AS.Write(a, val); err != nil {
				panic(fmt.Sprintf("kv: server %d prefill: %v", rank, err))
			}
		}
	}

	// Serving lanes: the primary endpoint plus every aux endpoint the
	// cluster attached to this rank-role (EndpointsPerNode). Each lane is
	// an independent dispatcher + worker pool on its own endpoint —
	// clients hash keys across the lanes, and lane traffic steers onto
	// its own NIC queue via the endpoint-pair flow.
	lanes := append([]*omx.Endpoint{ep}, ep.Aux()...)
	qs := make([]*sim.Queue[serverOp], len(lanes))
	for li := range qs {
		qs[li] = &sim.Queue[serverOp]{}
	}

	// Data-phase workers: GETs send the slot out, PUTs receive into it
	// in place and ack. The value segments are heap addresses, so every
	// transfer drives the registration cache and pinning policy on the
	// serving side.
	workers := cfg.workers()
	var done []*sim.Completion
	for li, lep := range lanes {
		lep, q := lep, qs[li]
		for w := 0; w < workers; w++ {
			name := fmt.Sprintf("kv-srv%d-w%d", rank, w)
			if li > 0 {
				name = fmt.Sprintf("kv-srv%d-l%d-w%d", rank, li, w)
			}
			d := &sim.Completion{}
			done = append(done, d)
			eng.Go(name, func(p *sim.Proc) {
				defer d.Complete(eng, nil)
				ack := mustMalloc(lep, ackBytes)
				for {
					so := q.Pop(p)
					if so.kind == opShut {
						return
					}
					slot := []omx.Segment{{
						Addr: heaps[so.tenant] + vm.Addr(cfg.slotOf(rank, so.key)*cfg.ValueBytes),
						Len:  cfg.ValueBytes,
					}}
					switch so.kind {
					case opGet:
						r := lep.IsendVHint(slot, kvMatch(rank, tagData|so.seq), c.PeerAddr(so.src), true)
						if err := lep.Wait(p, r); err != nil {
							st.Errors++
						}
					case opPut:
						if err := serverPutRecv(p, lep, cfg, slot, so); err != nil {
							st.Errors++
							continue
						}
						a := lep.IsendVHint([]omx.Segment{{Addr: ack, Len: ackBytes}},
							kvMatch(rank, tagReply|so.seq), c.PeerAddr(so.src), true)
						if err := lep.Wait(p, a); err != nil {
							st.Errors++
						}
					}
				}
			})
		}
	}

	// Memory hog: emergent pressure against the node's frame budget,
	// sweeping a churn arena while the serving loop runs (the reclaim
	// machinery steals cold heap pages — unless they're pinned). Every
	// whole churn page takes the same dirt page by reference: the sweep
	// faults, swaps in and steals exactly as a copy would, but moves no
	// bytes. Each sweep is one WriteBuf over the whole arena, which runs
	// the same faults, steals and notifier calls in the same order as a
	// call per page that checked hogStop between pages: a vm call never
	// yields, and the reclaim hook and the MMU notifiers it fires only
	// queue work, so nothing can set hogStop in the middle of a sweep.
	hogStop := false
	var hogDone *sim.Completion
	if cfg.ChurnBytes > 0 {
		hogDone = &sim.Completion{}
		churn := mustMalloc(ep, cfg.ChurnBytes)
		eng.Go(fmt.Sprintf("kv-srv%d-hog", rank), func(p *sim.Proc) {
			defer hogDone.Complete(eng, nil)
			pattern := make([]byte, vm.PageSize)
			for i := range pattern {
				pattern[i] = byte(i + 1)
			}
			dirt := vm.RepeatPage(pattern, vm.PageCount(0, cfg.ChurnBytes))
			defer dirt.Release()
			for !hogStop {
				w := vm.NewBufWriter(&dirt)
				if err := ep.AS.WriteBuf(churn, &w, cfg.ChurnBytes); err != nil {
					panic(fmt.Sprintf("kv: server %d churn: %v", rank, err))
				}
				p.Sleep(cfg.churnPeriod())
			}
		})
	}

	c.Barrier()

	// Header dispatchers, one per lane: one small receive at a time from
	// any client; bursts queue in the endpoint's unexpected queue in
	// deterministic arrival order. Each client announces completion with
	// one shutdown header per lane; a lane's loop ends when all have.
	// Lane 0 runs on the rank body itself (the historical single-lane
	// path, event-for-event); further lanes run as their own processes.
	dispatch := func(p *sim.Proc, lep *omx.Endpoint, q *sim.Queue[serverOp]) {
		hdr := mustMalloc(lep, headerBytes)
		clients := c.Size() - cfg.Servers
		for shut := 0; shut < clients; {
			r := lep.IrecvVHint([]omx.Segment{{Addr: hdr, Len: headerBytes}},
				kvMatch(0, tagReq), anySrcMask(), true)
			if err := lep.Wait(p, r); err != nil {
				st.Errors++
				continue
			}
			b := make([]byte, headerBytes)
			if err := lep.AS.Read(hdr, b); err != nil {
				panic(fmt.Sprintf("kv: server %d header read: %v", rank, err))
			}
			so := serverOp{
				kind:   opKind(b[0]),
				tenant: int(b[1]),
				key:    int(binary.LittleEndian.Uint32(b[4:])),
				seq:    binary.LittleEndian.Uint32(b[8:]) & seqMask,
				src:    int(uint16(r.RecvMatch >> srcShift)),
			}
			if so.kind == opShut {
				shut++
				continue
			}
			q.Push(eng, so)
		}
	}
	var laneDone []*sim.Completion
	for li := 1; li < len(lanes); li++ {
		li := li
		d := &sim.Completion{}
		laneDone = append(laneDone, d)
		eng.Go(fmt.Sprintf("kv-srv%d-l%d-disp", rank, li), func(p *sim.Proc) {
			defer d.Complete(eng, nil)
			dispatch(p, lanes[li], qs[li])
		})
	}
	dispatch(c.Proc(), lanes[0], qs[0])
	for _, d := range laneDone {
		d.Wait(c.Proc())
	}
	for li := range lanes {
		for w := 0; w < workers; w++ {
			qs[li].Push(eng, serverOp{kind: opShut})
		}
	}
	for _, d := range done {
		d.Wait(c.Proc())
	}
	hogStop = true
	if hogDone != nil {
		hogDone.Wait(c.Proc())
	}
	sink.Stash(StashKey(rank), st)
}

// serverPutRecv posts the PUT data receive. Under replication the wait is
// bounded by the failover timeout (a failed-over client will never send),
// and a crash-aborted receive is reposted once: the client's data phase
// may still be in flight from before the crash, and sends cannot be
// cancelled, so draining the dangling transfer is what unsticks the
// client. Unreplicated runs keep the historical unbounded single post.
func serverPutRecv(p *sim.Proc, lep *omx.Endpoint, cfg Config, slot []omx.Segment, so serverOp) error {
	if cfg.replicas() <= 1 {
		r := lep.IrecvVHint(slot, kvMatch(so.src, tagData|so.seq), ^uint64(0), true)
		return lep.Wait(p, r)
	}
	eng := lep.Node().Eng
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		r := lep.IrecvVHint(slot, kvMatch(so.src, tagData|so.seq), ^uint64(0), true)
		tm := eng.After(cfg.failoverTimeout(), func() { lep.CancelRecv(r, omx.ErrTimeout) })
		err = lep.Wait(p, r)
		tm.Cancel()
		if err == nil || errors.Is(err, omx.ErrTimeout) {
			break // done, or the data is genuinely not coming
		}
	}
	return err
}

func runClient(c *mpi.Comm, sink Sink, seed int64, cfg Config) {
	rank := c.Rank()
	ep := c.Endpoint()
	eng := ep.Node().Eng
	tenant := (rank - cfg.Servers) % len(cfg.Tenants)
	spec := cfg.Tenants[tenant]
	st := &Stats{Rank: rank, Tenant: tenant}

	// Seeded per-client streams: key popularity, arrival process, and
	// read/write mix draw independently so changing one never perturbs
	// the others.
	keys := NewZipf(mix(seed, rank, 1), cfg.Keys, cfg.Theta)
	arrivals := rand.New(rand.NewSource(mix(seed, rank, 2)))
	rw := rand.New(rand.NewSource(mix(seed, rank, 3)))

	// inflight counts accepted-but-incomplete operations — the admission
	// bound. Dispatcher and workers mutate it from the same engine's
	// strictly interleaved processes, so no lock is needed and the
	// trajectory is deterministic.
	inflight := 0
	var q sim.Queue[op]
	workers := cfg.workers()
	done := make([]*sim.Completion, workers)
	for w := 0; w < workers; w++ {
		w := w
		done[w] = &sim.Completion{}
		eng.Go(fmt.Sprintf("kv-cli%d-w%d", rank, w), func(p *sim.Proc) {
			defer done[w].Complete(eng, nil)
			val := mustMalloc(ep, cfg.ValueBytes)
			hdr := mustMalloc(ep, headerBytes)
			ack := mustMalloc(ep, ackBytes)
			for {
				o := q.Pop(p)
				if o.kind == opShut {
					return
				}
				err := clientOp(c, p, o, cfg, st, val, hdr, ack)
				lat := int64(p.Now() - o.scheduledAt)
				inflight--
				if err != nil {
					// Every protocol failure is a typed abort; anything
					// else would be a bug worth a loud note.
					if !errors.Is(err, omx.ErrAborted) && !errors.Is(err, omx.ErrPinAborted) {
						sink.Note("rank %d: unexpected op error: %v", rank, err)
					}
					st.Errors++
					continue
				}
				st.OK++
				inOutage := cfg.inOutage(o.scheduledAt)
				if o.kind == opGet {
					st.Get.Record(lat)
					if inOutage {
						st.GetOutage.Record(lat)
					}
				} else {
					st.Put.Record(lat)
					if inOutage {
						st.PutOutage.Record(lat)
					}
				}
			}
		})
	}

	c.Barrier()

	// Open-loop dispatch: the schedule is fixed by the seed — arrival i
	// happens at its drawn instant whether or not earlier operations
	// finished. Latency is charged from this scheduled instant, so
	// backend stalls surface as queueing delay instead of silently
	// thinning the load (coordinated omission).
	next := c.Now()
	for i := 0; i < spec.Ops; i++ {
		next += sim.Duration(arrivals.ExpFloat64() / spec.Rate * float64(sim.Second))
		if now := c.Now(); next > now {
			c.Proc().Sleep(next - now)
		}
		st.Issued++
		kind := opGet
		if rw.Float64() >= spec.GetFrac {
			kind = opPut
		}
		if spec.MaxInflight > 0 && inflight >= spec.MaxInflight {
			// Admission control: reject instead of queueing without
			// bound. The typed error keeps rejection observable through
			// the same errors.Is lattice the protocol verbs use.
			err := error(&omx.OverloadError{Limit: spec.MaxInflight, Inflight: inflight})
			if !errors.Is(err, omx.ErrOverload) {
				panic("kv: overload rejection lost its type")
			}
			st.Rejected++
			continue
		}
		inflight++
		q.Push(eng, op{kind: kind, tenant: tenant, key: keys.Next(), seq: uint32(i) & seqMask, scheduledAt: next})
	}
	for w := 0; w < workers; w++ {
		q.Push(eng, op{kind: opShut})
	}
	for _, d := range done {
		d.Wait(c.Proc())
	}

	// All operations done: release every serving lane of every server
	// with a shutdown header. A send lost to a crash window retries a few
	// times — the server restarts inside its chaos window and must still
	// learn this client is finished.
	hdr := mustMalloc(ep, headerBytes)
	for s := 0; s < cfg.Servers; s++ {
		for _, addr := range c.PeerAddrs(s) {
			for try := 0; ; try++ {
				writeHeader(ep, hdr, opShut, 0, 0, 0)
				r := ep.IsendVHint([]omx.Segment{{Addr: hdr, Len: headerBytes}},
					kvMatch(rank, tagReq), addr, true)
				err := ep.Wait(c.Proc(), r)
				if err == nil {
					break
				}
				st.Errors++
				if try >= 2 {
					sink.Note("rank %d: shutdown to %v lost after %d tries: %v", rank, addr, try+1, err)
					break
				}
			}
		}
	}
	sink.Stash(StashKey(rank), st)
}

// failoverable reports whether an error justifies trying another replica:
// the typed liveness aborts (peer dead, timed out), not admission or pin
// failures.
func failoverable(err error) bool {
	return errors.Is(err, omx.ErrPeerDead) || errors.Is(err, omx.ErrTimeout)
}

// laneAddr picks the serving lane on server for key: lanes partition the
// key space by quotient group, so one key always lands on the same lane.
func laneAddr(c *mpi.Comm, cfg Config, server, key int) omx.EndpointAddr {
	addrs := c.PeerAddrs(server)
	if len(addrs) == 1 {
		return addrs[0]
	}
	return addrs[key/cfg.Servers%len(addrs)]
}

// clientOp runs one operation's wire protocol from a client worker. Reads
// go to the key's primary and fail over through the replica set on typed
// liveness errors; writes go to every replica and succeed when at least
// one ack lands. With Replication 1 both shapes reduce to the historical
// single-server exchange.
func clientOp(c *mpi.Comm, p *sim.Proc, o op, cfg Config, st *Stats, val, hdr, ack vm.Addr) error {
	replicas := cfg.replicas()
	if o.kind == opGet {
		var lastErr error
		for i := 0; i < replicas; i++ {
			server := (o.key%cfg.Servers + i) % cfg.Servers
			err := clientGet(c, p, o, cfg, st, val, hdr, server)
			if err == nil {
				return nil
			}
			lastErr = err
			if i+1 < replicas && failoverable(err) {
				st.Failovers++
				continue
			}
			return err
		}
		return lastErr
	}
	acked := 0
	var lastErr error
	for i := 0; i < replicas; i++ {
		server := (o.key%cfg.Servers + i) % cfg.Servers
		if err := clientPut(c, p, o, cfg, val, hdr, ack, server); err != nil {
			lastErr = err
			if replicas > 1 && failoverable(err) {
				st.Failovers++
			}
			continue
		}
		acked++
	}
	if acked > 0 {
		return nil
	}
	return lastErr
}

// waitRecvBounded waits on a posted receive; with replication enabled a
// failover timer cancels it (ErrTimeout) if the replica goes quiet — a
// posted receive whose sender crashed would otherwise never complete.
func waitRecvBounded(c *mpi.Comm, p *sim.Proc, cfg Config, r *omx.Request) error {
	ep := c.Endpoint()
	if cfg.replicas() <= 1 {
		return ep.Wait(p, r)
	}
	tm := ep.Node().Eng.After(cfg.failoverTimeout(), func() {
		ep.CancelRecv(r, omx.ErrTimeout)
	})
	err := ep.Wait(p, r)
	tm.Cancel()
	return err
}

// clientGet runs one read attempt against one replica. The data receive
// posts before the request header goes out, so the server's data phase can
// never race the match.
func clientGet(c *mpi.Comm, p *sim.Proc, o op, cfg Config, st *Stats, val, hdr vm.Addr, server int) error {
	ep := c.Endpoint()
	rank := c.Rank()
	valSeg := []omx.Segment{{Addr: val, Len: cfg.ValueBytes}}

	data := ep.IrecvVHint(valSeg, kvMatch(server, tagData|o.seq), ^uint64(0), true)
	writeHeader(ep, hdr, o.kind, o.tenant, o.key, o.seq)
	req := ep.IsendVHint([]omx.Segment{{Addr: hdr, Len: headerBytes}},
		kvMatch(rank, tagReq), laneAddr(c, cfg, server, o.key), true)
	if err := ep.Wait(p, req); err != nil {
		// The request never reached the server: reap the posted receive
		// so the worker can move on.
		ep.CancelRecv(data, omx.ErrTimeout)
		ep.Wait(p, data)
		return err
	}
	if err := waitRecvBounded(c, p, cfg, data); err != nil {
		return err
	}
	var got [8]byte
	if err := ep.AS.Read(val, got[:]); err != nil {
		panic(fmt.Sprintf("kv: rank %d value read: %v", rank, err))
	}
	if binary.LittleEndian.Uint64(got[:]) != sig(o.tenant, o.key) {
		st.BadVals++
	}
	return nil
}

// clientPut runs one write against one replica.
func clientPut(c *mpi.Comm, p *sim.Proc, o op, cfg Config, val, hdr, ack vm.Addr, server int) error {
	ep := c.Endpoint()
	rank := c.Rank()
	valSeg := []omx.Segment{{Addr: val, Len: cfg.ValueBytes}}

	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], sig(o.tenant, o.key))
	if err := ep.AS.Write(val, sb[:]); err != nil {
		panic(fmt.Sprintf("kv: rank %d value write: %v", rank, err))
	}
	reply := ep.IrecvVHint([]omx.Segment{{Addr: ack, Len: ackBytes}},
		kvMatch(server, tagReply|o.seq), ^uint64(0), true)

	writeHeader(ep, hdr, o.kind, o.tenant, o.key, o.seq)
	req := ep.IsendVHint([]omx.Segment{{Addr: hdr, Len: headerBytes}},
		kvMatch(rank, tagReq), laneAddr(c, cfg, server, o.key), true)
	if err := ep.Wait(p, req); err != nil {
		ep.CancelRecv(reply, omx.ErrTimeout)
		ep.Wait(p, reply)
		return err
	}

	send := ep.IsendVHint(valSeg, kvMatch(rank, tagData|o.seq), laneAddr(c, cfg, server, o.key), true)
	if err := ep.Wait(p, send); err != nil {
		ep.CancelRecv(reply, omx.ErrTimeout)
		ep.Wait(p, reply)
		return err
	}
	return waitRecvBounded(c, p, cfg, reply)
}

// TenantMerged is one tenant's cluster-wide aggregate.
type TenantMerged struct {
	Name     string
	Get      report.Hist
	Put      report.Hist
	Issued   int
	OK       int
	Rejected int
	Errors   int
	BadVals  int
}

// Merged is the cluster-wide aggregate Collect produces: per-class
// histograms across all tenants, per-tenant breakdowns, and the server
// side's error count. Because the histograms merge exactly and ranks fold
// in ascending order, Merged is identical whatever the shard layout.
type Merged struct {
	Get report.Hist
	Put report.Hist
	// OutageGet/OutagePut cover only operations scheduled inside the
	// configured outage window (empty when no window is set) — the view
	// the replicated scenario's SLO gate reads.
	OutageGet  report.Hist
	OutagePut  report.Hist
	Tenants    []TenantMerged
	ServerErrs int
	Failovers  int
}

// Collect folds every rank's stashed Stats (ranks 0..ranks-1, in order)
// into one Merged. get returns rank r's record, or nil if the rank never
// stashed (a budget-expired run) — nil records are skipped.
func Collect(cfg Config, ranks int, get func(rank int) *Stats) *Merged {
	m := &Merged{Tenants: make([]TenantMerged, len(cfg.Tenants))}
	for t := range cfg.Tenants {
		m.Tenants[t].Name = cfg.Tenants[t].Name
	}
	for r := 0; r < ranks; r++ {
		st := get(r)
		if st == nil {
			continue
		}
		if st.Tenant < 0 {
			m.ServerErrs += st.Errors
			continue
		}
		tm := &m.Tenants[st.Tenant]
		tm.Get.Merge(&st.Get)
		tm.Put.Merge(&st.Put)
		tm.Issued += st.Issued
		tm.OK += st.OK
		tm.Rejected += st.Rejected
		tm.Errors += st.Errors
		tm.BadVals += st.BadVals
		m.Get.Merge(&st.Get)
		m.Put.Merge(&st.Put)
		m.OutageGet.Merge(&st.GetOutage)
		m.OutagePut.Merge(&st.PutOutage)
		m.Failovers += st.Failovers
	}
	return m
}

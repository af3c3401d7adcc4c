package mpi

import (
	"encoding/binary"
	"math"

	"omxsim/internal/omx"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// collMatch builds match info for collective step tag within the current
// collective's sequence number.
func (c *Comm) collMatch(src int, step int) (match, mask uint64) {
	tag := int(c.collSeq)<<8 | step
	return encodeMatch(ctxColl, src, tag), ^uint64(0)
}

func (c *Comm) collSend(addr vm.Addr, n, dst, step int) *omx.Request {
	m, _ := c.collMatch(c.rank, step)
	return c.ep.Isend(addr, n, m, c.world.eps[dst].Addr())
}

func (c *Comm) collRecv(addr vm.Addr, n, src, step int) *omx.Request {
	m, mask := c.collMatch(src, step)
	return c.ep.Irecv(addr, n, m, mask)
}

// Barrier synchronizes all ranks (gather-to-0 then broadcast of a token).
func (c *Comm) Barrier() {
	c.collSeq++
	if c.size == 1 {
		return
	}
	if c.rank == 0 {
		for r := 1; r < c.size; r++ {
			c.Wait(c.collRecv(0, 0, r, 0))
		}
		reqs := make([]*omx.Request, 0, c.size-1)
		for r := 1; r < c.size; r++ {
			reqs = append(reqs, c.collSend(0, 0, r, 1))
		}
		c.WaitAll(reqs...)
		return
	}
	c.Wait(c.collSend(0, 0, 0, 0))
	c.Wait(c.collRecv(0, 0, 0, 1))
}

// Bcast broadcasts n bytes at addr from root via a binomial tree.
func (c *Comm) Bcast(addr vm.Addr, n, root int) {
	c.collSeq++
	if c.size == 1 || n < 0 {
		return
	}
	// Virtual rank relative to root. Phase 1: every non-root receives once
	// from its tree parent; phase 2: forward to children in decreasing
	// subtree order (standard binomial broadcast).
	vr := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if vr&mask != 0 {
			parent := ((vr - mask) + root) % c.size
			c.Wait(c.collRecv(addr, n, parent, mask))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < c.size {
			child := (vr + mask + root) % c.size
			c.Wait(c.collSend(addr, n, child, mask))
		}
		mask >>= 1
	}
}

// Op combines src into dst element-wise; buffers are raw bytes of equal
// length.
type Op func(dst, src []byte)

// SumFloat64 adds 8-byte little-endian float64 elements.
func SumFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(d+s))
	}
}

// SumInt32 adds 4-byte little-endian int32 elements.
func SumInt32(dst, src []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		d := int32(binary.LittleEndian.Uint32(dst[i:]))
		s := int32(binary.LittleEndian.Uint32(src[i:]))
		binary.LittleEndian.PutUint32(dst[i:], uint32(d+s))
	}
}

// Reduce combines n bytes at addr across ranks with op, leaving the result
// at addr on root (other ranks' buffers are unchanged). Binomial tree.
// The combine itself costs CPU time proportional to the data touched.
func (c *Comm) Reduce(addr vm.Addr, n, root int, op Op) {
	c.collSeq++
	if c.size == 1 || n == 0 {
		return
	}
	vr := (c.rank - root + c.size) % c.size
	// Accumulator starts as the local contribution.
	acc := c.ReadBytes(addr, n)
	tmp := c.Malloc(n)
	mask := 1
	for mask < c.size {
		if vr&mask != 0 {
			peer := ((vr &^ mask) + root) % c.size
			c.WriteBytes(tmp, acc)
			c.Wait(c.collSend(tmp, n, peer, mask))
			break
		}
		peer := vr | mask
		if peer < c.size {
			c.Wait(c.collRecv(tmp, n, (peer+root)%c.size, mask))
			src := c.ReadBytes(tmp, n)
			op(acc, src)
			c.Compute(reduceCost(n))
		}
		mask <<= 1
	}
	c.Free(tmp)
	if c.rank == root {
		c.WriteBytes(addr, acc)
	}
}

// reduceCost models the per-byte arithmetic of combining buffers
// (~1 GB/s on era hardware: load+load+add+store per 8 bytes).
func reduceCost(n int) sim.Duration {
	return sim.Duration(float64(n) / 1.0e9 * 1e9)
}

// Allreduce is Reduce to rank 0 followed by Bcast (the Open MPI basic
// algorithm for this size range).
func (c *Comm) Allreduce(addr vm.Addr, n int, op Op) {
	c.Reduce(addr, n, 0, op)
	c.Bcast(addr, n, 0)
}

// ReduceScatter reduces counts[i] bytes to each rank i: implemented as
// Reduce of the full buffer to rank 0, then Scatterv.
func (c *Comm) ReduceScatter(addr vm.Addr, counts []int, op Op) {
	total := 0
	for _, n := range counts {
		total += n
	}
	c.Reduce(addr, total, 0, op)
	c.Scatterv(addr, counts, addr, 0)
}

// Scatterv sends counts[i] bytes (at the appropriate offset of sendAddr on
// root) to each rank i's recvAddr.
func (c *Comm) Scatterv(sendAddr vm.Addr, counts []int, recvAddr vm.Addr, root int) {
	c.collSeq++
	if c.size == 1 {
		return
	}
	if c.rank == root {
		off := 0
		var reqs []*omx.Request
		for r := 0; r < c.size; r++ {
			if r != root {
				reqs = append(reqs, c.collSend(sendAddr+vm.Addr(off), counts[r], r, 0))
			} else if sendAddr+vm.Addr(off) != recvAddr {
				data := c.ReadBytes(sendAddr+vm.Addr(off), counts[r])
				c.WriteBytes(recvAddr, data)
			}
			off += counts[r]
		}
		c.WaitAll(reqs...)
		return
	}
	c.Wait(c.collRecv(recvAddr, counts[c.rank], root, 0))
}

// Gatherv collects counts[i] bytes from each rank into root's recvAddr.
func (c *Comm) Gatherv(sendAddr vm.Addr, n int, recvAddr vm.Addr, counts []int, root int) {
	c.collSeq++
	if c.size == 1 {
		return
	}
	if c.rank == root {
		off := 0
		var reqs []*omx.Request
		for r := 0; r < c.size; r++ {
			if r != root {
				reqs = append(reqs, c.collRecv(recvAddr+vm.Addr(off), counts[r], r, 0))
			} else {
				data := c.ReadBytes(sendAddr, n)
				c.WriteBytes(recvAddr+vm.Addr(off), data)
			}
			off += counts[r]
		}
		c.WaitAll(reqs...)
		return
	}
	c.Wait(c.collSend(sendAddr, n, root, 0))
}

// Allgatherv gathers counts[i] bytes from every rank into every rank's
// recvAddr, ring algorithm: size-1 steps, each forwarding the previously
// received block to the right neighbour.
func (c *Comm) Allgatherv(sendAddr vm.Addr, recvAddr vm.Addr, counts []int) {
	c.collSeq++
	offs := make([]int, c.size+1)
	for i, n := range counts {
		offs[i+1] = offs[i] + n
	}
	// Place own block.
	own := c.ReadBytes(sendAddr, counts[c.rank])
	c.WriteBytes(recvAddr+vm.Addr(offs[c.rank]), own)
	if c.size == 1 {
		return
	}
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	blk := c.rank // block we forward next
	for step := 0; step < c.size-1; step++ {
		recvBlk := (blk - 1 + c.size) % c.size
		rr := c.collRecv(recvAddr+vm.Addr(offs[recvBlk]), counts[recvBlk], left, step)
		sr := c.collSend(recvAddr+vm.Addr(offs[blk]), counts[blk], right, step)
		c.Wait(sr)
		c.Wait(rr)
		blk = recvBlk
	}
}

// Alltoallv exchanges sendCounts[i] bytes with every rank i (pairwise
// exchange algorithm). Offsets within the buffers are the prefix sums of
// the counts; recvCounts[i] bytes land at the i-th offset of recvAddr.
func (c *Comm) Alltoallv(sendAddr vm.Addr, sendCounts []int, recvAddr vm.Addr, recvCounts []int) {
	c.collSeq++
	soffs := make([]int, c.size+1)
	roffs := make([]int, c.size+1)
	for i := 0; i < c.size; i++ {
		soffs[i+1] = soffs[i] + sendCounts[i]
		roffs[i+1] = roffs[i] + recvCounts[i]
	}
	// Local block.
	if sendCounts[c.rank] > 0 {
		data := c.ReadBytes(sendAddr+vm.Addr(soffs[c.rank]), sendCounts[c.rank])
		c.WriteBytes(recvAddr+vm.Addr(roffs[c.rank]), data)
	}
	for step := 1; step < c.size; step++ {
		sendPeer := (c.rank + step) % c.size
		recvPeer := (c.rank - step + c.size) % c.size
		rr := c.collRecv(recvAddr+vm.Addr(roffs[recvPeer]), recvCounts[recvPeer], recvPeer, step)
		sr := c.collSend(sendAddr+vm.Addr(soffs[sendPeer]), sendCounts[sendPeer], sendPeer, step)
		c.Wait(sr)
		c.Wait(rr)
	}
}

// Gather collects n bytes from every rank into root's recvAddr (fixed-size
// form of Gatherv).
func (c *Comm) Gather(sendAddr vm.Addr, n int, recvAddr vm.Addr, root int) {
	counts := make([]int, c.size)
	for i := range counts {
		counts[i] = n
	}
	c.Gatherv(sendAddr, n, recvAddr, counts, root)
}

// Scatter distributes n bytes per rank from root's sendAddr (fixed-size
// form of Scatterv).
func (c *Comm) Scatter(sendAddr vm.Addr, n int, recvAddr vm.Addr, root int) {
	counts := make([]int, c.size)
	for i := range counts {
		counts[i] = n
	}
	c.Scatterv(sendAddr, counts, recvAddr, root)
}

// Allgather gathers n bytes from every rank to every rank (fixed-size form
// of Allgatherv).
func (c *Comm) Allgather(sendAddr vm.Addr, n int, recvAddr vm.Addr) {
	counts := make([]int, c.size)
	for i := range counts {
		counts[i] = n
	}
	c.Allgatherv(sendAddr, recvAddr, counts)
}

// Alltoall exchanges n bytes with every rank (fixed-size form of
// Alltoallv).
func (c *Comm) Alltoall(sendAddr vm.Addr, n int, recvAddr vm.Addr) {
	counts := make([]int, c.size)
	for i := range counts {
		counts[i] = n
	}
	c.Alltoallv(sendAddr, counts, recvAddr, counts)
}

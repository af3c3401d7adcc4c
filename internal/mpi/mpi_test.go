package mpi_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

func newCluster(t *testing.T, nodes, ranksPerNode int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:        nodes,
		RanksPerNode: ranksPerNode,
		OMX:          omx.DefaultConfig(policy.OnDemand, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

func TestSendRecvBlocking(t *testing.T) {
	cl := newCluster(t, 2, 1)
	const n = 1 << 20
	want := pattern(n, 7)
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(n)
		switch c.Rank() {
		case 0:
			c.WriteBytes(buf, want)
			c.Send(buf, n, 1, 99)
		case 1:
			st := c.Recv(buf, n, 0, 99)
			if st.Source != 0 || st.Tag != 99 || st.Len != n {
				t.Errorf("status = %+v", st)
			}
			if !bytes.Equal(c.ReadBytes(buf, n), want) {
				t.Error("data corrupted")
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	cl := newCluster(t, 2, 2) // 4 ranks
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(4096)
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				st := c.Recv(buf, 4096, mpi.AnySource, 5)
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				t.Errorf("sources seen = %v", seen)
			}
		} else {
			c.WriteBytes(buf, pattern(4096, byte(c.Rank())))
			c.Send(buf, 4096, 0, 5)
		}
	})
}

func TestBarrier(t *testing.T) {
	cl := newCluster(t, 2, 2)
	arrived := make([]sim.Time, 4)
	cl.Run(func(c *mpi.Comm) {
		c.Compute(sim.Duration(c.Rank()) * 1000) // stagger arrival
		c.Barrier()
		arrived[c.Rank()] = c.Now()
		c.Barrier()
	})
	// After the first barrier everyone must be past the slowest arrival.
	for r, at := range arrived {
		if at < 3000 {
			t.Errorf("rank %d passed barrier at %d, before slowest arrival", r, at)
		}
	}
}

func TestBcastLarge(t *testing.T) {
	for _, perNode := range []int{1, 2} {
		ranks := 2 * perNode
		cl := newCluster(t, 2, perNode)
		const n = 2 << 20
		want := pattern(n, 3)
		ok := make([]bool, ranks)
		cl.Run(func(c *mpi.Comm) {
			buf := c.Malloc(n)
			if c.Rank() == 1 { // non-zero root
				c.WriteBytes(buf, want)
			}
			c.Bcast(buf, n, 1)
			if bytes.Equal(c.ReadBytes(buf, n), want) {
				ok[c.Rank()] = true
			}
		})
		for r := 0; r < ranks; r++ {
			if !ok[r] {
				t.Errorf("ranks=%d: rank %d has wrong bcast data", ranks, r)
			}
		}
	}
}

func TestReduceSumFloat64(t *testing.T) {
	cl := newCluster(t, 2, 2)
	const elems = 1 << 16
	n := elems * 8
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(n)
		local := make([]byte, n)
		for i := 0; i < elems; i++ {
			v := float64(c.Rank()+1) * float64(i)
			binary.LittleEndian.PutUint64(local[i*8:], math.Float64bits(v))
		}
		c.WriteBytes(buf, local)
		c.Reduce(buf, n, 0, mpi.SumFloat64)
		if c.Rank() == 0 {
			got := c.ReadBytes(buf, n)
			for i := 0; i < elems; i += 7777 {
				want := float64(1+2+3+4) * float64(i)
				v := math.Float64frombits(binary.LittleEndian.Uint64(got[i*8:]))
				if math.Abs(v-want) > 1e-9 {
					t.Errorf("elem %d = %v, want %v", i, v, want)
					return
				}
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	cl := newCluster(t, 2, 2)
	const elems = 4096
	n := elems * 4
	checked := 0
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(n)
		local := make([]byte, n)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint32(local[i*4:], uint32(c.Rank()+i))
		}
		c.WriteBytes(buf, local)
		c.Allreduce(buf, n, mpi.SumInt32)
		got := c.ReadBytes(buf, n)
		for i := 0; i < elems; i += 997 {
			want := int32(0+1+2+3) + 4*int32(i)
			if v := int32(binary.LittleEndian.Uint32(got[i*4:])); v != want {
				t.Errorf("rank %d elem %d = %d, want %d", c.Rank(), i, v, want)
				return
			}
		}
		checked++
	})
	if checked != 4 {
		t.Fatalf("only %d ranks verified", checked)
	}
}

func TestAllgatherv(t *testing.T) {
	cl := newCluster(t, 2, 2)
	counts := []int{100 * 1024, 200 * 1024, 50 * 1024, 150 * 1024}
	total := 0
	for _, n := range counts {
		total += n
	}
	verified := 0
	cl.Run(func(c *mpi.Comm) {
		send := c.Malloc(counts[c.Rank()])
		recv := c.Malloc(total)
		c.WriteBytes(send, pattern(counts[c.Rank()], byte(10*c.Rank())))
		c.Allgatherv(send, recv, counts)
		got := c.ReadBytes(recv, total)
		off := 0
		for r := 0; r < c.Size(); r++ {
			want := pattern(counts[r], byte(10*r))
			if !bytes.Equal(got[off:off+counts[r]], want) {
				t.Errorf("rank %d: block %d corrupted", c.Rank(), r)
				return
			}
			off += counts[r]
		}
		verified++
	})
	if verified != 4 {
		t.Fatalf("only %d ranks verified", verified)
	}
}

func TestReduceScatter(t *testing.T) {
	cl := newCluster(t, 2, 2)
	counts := []int{64 * 1024, 64 * 1024, 64 * 1024, 64 * 1024}
	n := 256 * 1024
	verified := 0
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(n)
		local := make([]byte, n)
		for i := 0; i+4 <= n; i += 4 {
			binary.LittleEndian.PutUint32(local[i:], uint32(c.Rank()+1))
		}
		c.WriteBytes(buf, local)
		c.ReduceScatter(buf, counts, mpi.SumInt32)
		got := c.ReadBytes(buf, counts[c.Rank()])
		for i := 0; i+4 <= len(got); i += 4 {
			if v := binary.LittleEndian.Uint32(got[i:]); v != 10 { // 1+2+3+4
				t.Errorf("rank %d got %d, want 10", c.Rank(), v)
				return
			}
		}
		verified++
	})
	if verified != 4 {
		t.Fatalf("only %d ranks verified", verified)
	}
}

func TestAlltoallv(t *testing.T) {
	for _, shape := range [][2]int{{2, 1}, {2, 2}, {3, 1}, {4, 2}} {
		cl := newCluster(t, shape[0], shape[1])
		size := shape[0] * shape[1]
		blk := 96 * 1024
		verified := 0
		cl.Run(func(c *mpi.Comm) {
			counts := make([]int, size)
			for i := range counts {
				counts[i] = blk
			}
			send := c.Malloc(blk * size)
			recv := c.Malloc(blk * size)
			for r := 0; r < size; r++ {
				// Block destined to rank r is tagged (sender, receiver).
				c.WriteBytes(send+vm.Addr(r*blk), pattern(blk, byte(16*c.Rank()+r)))
			}
			c.Alltoallv(send, counts, recv, counts)
			for r := 0; r < size; r++ {
				want := pattern(blk, byte(16*r+c.Rank()))
				if !bytes.Equal(c.ReadBytes(recv+vm.Addr(r*blk), blk), want) {
					t.Errorf("size=%d rank %d: block from %d corrupted", size, c.Rank(), r)
					return
				}
			}
			verified++
		})
		if verified != size {
			t.Fatalf("size=%d: only %d ranks verified", size, verified)
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	cl := newCluster(t, 2, 2)
	const per = 48 * 1024
	verified := 0
	cl.Run(func(c *mpi.Comm) {
		root := 2
		send := c.Malloc(per * c.Size())
		recv := c.Malloc(per)
		gathered := c.Malloc(per * c.Size())
		if c.Rank() == root {
			for r := 0; r < c.Size(); r++ {
				c.WriteBytes(send+vm.Addr(r*per), pattern(per, byte(r+1)))
			}
		}
		c.Scatter(send, per, recv, root)
		if !bytes.Equal(c.ReadBytes(recv, per), pattern(per, byte(c.Rank()+1))) {
			t.Errorf("rank %d: scatter data wrong", c.Rank())
			return
		}
		c.Gather(recv, per, gathered, root)
		if c.Rank() == root {
			for r := 0; r < c.Size(); r++ {
				if !bytes.Equal(c.ReadBytes(gathered+vm.Addr(r*per), per), pattern(per, byte(r+1))) {
					t.Errorf("gather block %d wrong", r)
					return
				}
			}
		}
		verified++
	})
	if verified != 4 {
		t.Fatalf("only %d ranks verified", verified)
	}
}

func TestAllgatherFixed(t *testing.T) {
	cl := newCluster(t, 2, 2)
	const per = 32 * 1024
	verified := 0
	cl.Run(func(c *mpi.Comm) {
		send := c.Malloc(per)
		recv := c.Malloc(per * c.Size())
		c.WriteBytes(send, pattern(per, byte(c.Rank()*3)))
		c.Allgather(send, per, recv)
		for r := 0; r < c.Size(); r++ {
			if !bytes.Equal(c.ReadBytes(recv+vm.Addr(r*per), per), pattern(per, byte(r*3))) {
				t.Errorf("rank %d: block %d wrong", c.Rank(), r)
				return
			}
		}
		verified++
	})
	if verified != 4 {
		t.Fatalf("only %d ranks verified", verified)
	}
}

func TestAlltoallFixed(t *testing.T) {
	cl := newCluster(t, 2, 2)
	const per = 40 * 1024
	verified := 0
	cl.Run(func(c *mpi.Comm) {
		send := c.Malloc(per * c.Size())
		recv := c.Malloc(per * c.Size())
		for r := 0; r < c.Size(); r++ {
			c.WriteBytes(send+vm.Addr(r*per), pattern(per, byte(16*c.Rank()+r)))
		}
		c.Alltoall(send, per, recv)
		for r := 0; r < c.Size(); r++ {
			if !bytes.Equal(c.ReadBytes(recv+vm.Addr(r*per), per), pattern(per, byte(16*r+c.Rank()))) {
				t.Errorf("rank %d: block from %d wrong", c.Rank(), r)
				return
			}
		}
		verified++
	})
	if verified != 4 {
		t.Fatalf("only %d ranks verified", verified)
	}
}

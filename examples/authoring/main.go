// Authoring: the runnable companion to docs/scenario-authoring.md — a
// complete scenario registered from scratch in ~40 lines: a case matrix
// spanning three pinning backends, a fault injection, a workload that
// issues a pin-ahead hint, and assertions that gate the exit status.
//
// Run it, then read the guide with the output next to it:
//
//	go run ./examples/authoring
package main

import (
	"fmt"
	"os"

	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/report"
	"omxsim/internal/scenario"
	"omxsim/internal/sim"
)

func init() {
	scenario.MustRegister(&scenario.Scenario{
		Name:        "authoring-demo",
		Description: "docs/scenario-authoring.md's example: one buffer, three backends, one fault",
		// The case matrix: each case is a pinning backend plus free-form
		// params the workload can branch on.
		Cases: []scenario.Case{
			{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
			{Label: "odp", OMX: omx.DefaultConfig(policy.ODP, true)},
			{Label: "pin-ahead", OMX: omx.DefaultConfig(policy.PinAhead, true),
				Params: map[string]string{"advise": "1"}},
		},
		Sizes:      []int{1 << 20, 4 << 20},
		QuickSizes: []int{1 << 20},
		Metric:     "mbps",
		// The workload runs once per rank per (case, size) cell.
		Workload: func(c *mpi.Comm, cr *scenario.CaseRun) {
			n := cr.Size
			buf := c.Malloc(n)
			cr.RegisterBuffer(c.Rank(), "payload", buf, n) // fault target
			if cr.Param("advise") != "" {
				c.Advise(buf, n) // user-guided pin-ahead hint
			}
			c.Barrier()
			start := c.Now()
			const iters = 4
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					c.Send(buf, n, 1, 7)
				} else {
					c.Recv(buf, n, 0, 7)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				cr.Metric("mbps", float64(iters)*float64(n)/(c.Now()-start).Seconds()/(1<<20))
			}
		},
		// Swap pressure lands on rank 1's buffer as soon as the workload
		// registers it.
		Faults: []scenario.Fault{
			{At: 200 * sim.Microsecond, Kind: scenario.FaultSwapOut, Rank: 1, Buffer: "payload"},
		},
		Assertions: []scenario.Assertion{
			scenario.Completed(),
			scenario.MetricPositive("mbps"),
			scenario.PinAccountingBalanced(),
		},
	})
}

func main() {
	res, err := scenario.RunByName("authoring-demo", scenario.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report.WriteText(os.Stdout, res)
	if res.Failed() {
		os.Exit(1)
	}
}

// Driver for the pilot layer, the real-clock datapath: pilot.RunSend and
// pilot.RunRecv in one process over two 127.0.0.1 UDP sockets - the
// traffic crosses the host's loopback interface, not a link - emulating
// 400 Mbit/s and a 10 ms RTT, with 1 000 web requests offered open loop
// on the real clock at 300 Mbit/s. The host's UDP counters are read
// around the run, and the simulated twin is the accuracy reference. The
// process is ~10 % busy: the pilot is bound by timer wake-ups
// (wall.late_p50_us), so its numbers are the rate a flow-controlled
// protocol delivered, never the rate offered, and twin_fct_ratio tends
// to 1 as the wake-up latency falls.
package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"bundler/bench/internal/lb"
	"bundler/internal/clock"
	"bundler/internal/exp"
	"bundler/internal/pilot"
)

// udpCounters reads the host-wide UDP InDatagrams and RcvbufErrors.
func udpCounters() (in, dropped float64, err error) {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, 0, err
	}
	var names, values []string
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "Udp: "); ok {
			if names == nil {
				names = strings.Fields(rest)
			} else {
				values = strings.Fields(rest)
			}
		}
	}
	for i, name := range names {
		if i >= len(values) {
			break
		}
		v, _ := strconv.ParseFloat(values[i], 64)
		switch name {
		case "InDatagrams":
			in = v
		case "RcvbufErrors":
			dropped = v
		}
	}
	if names == nil {
		return 0, 0, fmt.Errorf("no Udp line in /proc/net/snmp")
	}
	return in, dropped, nil
}

// runPilot binds two loopback UDP sockets and runs the receiving role in
// a goroutine and the sending role here. It returns the sender's result
// and the wall time of the RunSend call.
func runPilot(cfg pilot.Config) (exp.Result, time.Duration, error) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", loop)
	if err != nil {
		return exp.Result{}, 0, err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp4", loop)
	if err != nil {
		return exp.Result{}, 0, err
	}
	defer b.Close()
	recvErr := make(chan error, 1)
	go func() { recvErr <- pilot.RunRecv(cfg, b, a.LocalAddr().(*net.UDPAddr)) }()
	t0 := time.Now()
	res, err := pilot.RunSend(cfg, a, b.LocalAddr().(*net.UDPAddr))
	wall := time.Since(t0)
	if err != nil {
		// The receiving role ends at its own horizon; it holds nothing
		// the caller needs, and the caller is about to give up.
		return exp.Result{}, wall, err
	}
	return res, wall, <-recvErr
}

func main() {
	lb.Main(func(o lb.Out) error {
		cfg := pilot.Config{Seed: lb.Seed, Rate: 400e6, OfferedBps: 300e6, RTT: 10 * clock.Millisecond,
			Requests: 1000, Algorithm: "copa", Horizon: 60 * time.Second}
		twin, err := pilot.RunTwin(cfg)
		if err != nil {
			return err
		}
		in0, drop0, err := udpCounters()
		if err != nil {
			return err
		}
		res, wall, err := runPilot(cfg)
		if err != nil {
			return err
		}
		in1, drop1, err := udpCounters()
		if err != nil {
			return err
		}
		in, dropped := in1-in0, drop1-drop0
		o["pilot.dgrams_per_s"] = in / wall.Seconds()
		o["pilot.udp_drop_frac"] = dropped / (in + dropped)
		o["pilot.goodput_mbps"] = res.Metric("bytes") * 8 / wall.Seconds() / 1e6
		o["pilot.fct_p50_ms"] = res.Metric("fct-p50")
		o["pilot.slowdown_p50"] = res.Metric("slowdown-p50")
		o["pilot.twin_fct_ratio"] = res.Metric("fct-p50") / twin.Metric("fct-p50")
		return nil
	})
}

package qdisc

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// Parse builds the scheduler a spec names, with a depth in packets:
// "sfq" (also ""), "fifo", "fqcodel", "codel", "red", "drr", "pie",
// "prio:<port>" giving strict priority to destination port <port>,
// "sp:<port>[/<port>...]" for class-based strict priority over
// destination ports (first listed = highest), or
// "wfq:<port>=<weight>[/<port>=<weight>...]" for weighted fair queueing.
// Bare "wfq" and "sp" take their classes from the classes argument (a
// config's declared classes section) and are an error without one. It
// is the one parser of scheduler specs, which are user input: a -set
// sched= flag, a sweep-grid axis value or a config file's qdisc field.
func Parse(clk clock.Clock, name string, packets int, classes []Class) (Qdisc, error) {
	if packets < 1 {
		return nil, fmt.Errorf("scheduler %q: depth of %d packets (want at least 1)", name, packets)
	}
	switch {
	case name == "" || name == "sfq":
		return NewSFQ(1024, packets), nil
	case name == "fifo":
		return NewFIFO(packets * pkt.MTU), nil
	case name == "fqcodel":
		return NewFQCoDel(clk, 1024, packets), nil
	case name == "codel":
		return NewCoDel(clk, packets), nil
	case name == "red":
		return NewRED(clk, packets*pkt.MTU), nil
	case name == "drr":
		return NewDRR(packets), nil
	case name == "pie":
		return NewPIE(clk, packets), nil
	case len(name) > 5 && name[:5] == "prio:":
		var port int
		if _, err := fmt.Sscanf(name[5:], "%d", &port); err != nil || port < 0 || port > 65535 {
			return nil, fmt.Errorf("bad prio port in scheduler %q (want 0-65535)", name)
		}
		if packets < 2 {
			return nil, fmt.Errorf("scheduler %q: depth of %d packets (want at least 2, one per band)", name, packets)
		}
		return NewPrio(2, packets/2*pkt.MTU, func(p *pkt.Packet) int {
			if int(p.Dst.Port) == port {
				return 0
			}
			return 1
		}), nil
	case name == "wfq" || name == "sp" || strings.HasPrefix(name, "wfq:") || strings.HasPrefix(name, "sp:"):
		mode, spec, inline := strings.Cut(name, ":")
		if inline {
			var err error
			if classes, err = parseClassSpec(spec, mode == "wfq"); err != nil {
				return nil, fmt.Errorf("scheduler %q: %w", name, err)
			}
		} else if len(classes) == 0 {
			return nil, fmt.Errorf("scheduler %q needs classes: declare a classes section in the config, or spell out %s", name, specSyntax(name))
		}
		if mode == "wfq" {
			return NewWFQ(packets, classes, ClassifierByPort(classes)), nil
		}
		return NewSP(packets, classes, ClassifierByPort(classes)), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q (want sfq, fifo, fqcodel, codel, red, drr, pie, prio:<port>, sp:<port>/..., or wfq:<port>=<weight>/...)", name)
	}
}

func specSyntax(mode string) string {
	if mode == "wfq" {
		return "wfq:<port>=<weight>[/<port>=<weight>...]"
	}
	return "sp:<port>[/<port>...]"
}

// parseClassSpec parses the inline class grammar shared by the sp: and
// wfq: scheduler specs: "/"-separated destination ports, each optionally
// weighted as <port>=<weight> when weighted is true. The separator is
// "/" rather than "," so a full spec survives as one sweep-grid axis
// value (exp.ParseGrid splits values on commas). Classes are named
// "p<port>"; packets matching no class fall to the last listed one.
func parseClassSpec(spec string, weighted bool) ([]Class, error) {
	if spec == "" {
		return nil, fmt.Errorf("empty class list")
	}
	seen := make(map[int]bool)
	var classes []Class
	for _, tok := range strings.Split(spec, "/") {
		portStr, weightStr, hasWeight := strings.Cut(tok, "=")
		if hasWeight && !weighted {
			return nil, fmt.Errorf("class %q carries a weight, but strict priority takes no weights (weights are a wfq-mode feature)", tok)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil || port < 1 || port > 65535 {
			return nil, fmt.Errorf("bad class port %q (want 1-65535)", portStr)
		}
		if seen[port] {
			return nil, fmt.Errorf("duplicate class port %d", port)
		}
		seen[port] = true
		weight := 1.0
		if hasWeight {
			weight, err = strconv.ParseFloat(weightStr, 64)
			if err != nil || math.IsNaN(weight) || math.IsInf(weight, 0) || weight <= 0 {
				return nil, fmt.Errorf("bad weight %q for port %d (want a positive, finite number)", weightStr, port)
			}
		}
		classes = append(classes, Class{Name: "p" + portStr, Port: uint16(port), Weight: weight})
	}
	return classes, nil
}

package exp

import "sync"

// notes is where runs leave diagnostics that are not results.
var notes struct {
	sync.Mutex
	sink func(line string)
}

// SetNotes directs the notes runs leave to sink; nil, the default,
// discards them. bundler-bench prints them under each run's summary. A
// note never enters a Result, so it moves no digest, golden or stored
// cell.
func SetNotes(sink func(line string)) {
	notes.Lock()
	notes.sink = sink
	notes.Unlock()
}

// Note hands one diagnostic line to the sink SetNotes installed, if
// any: what a run that stopped at its horizon unfinished still had in
// flight, say. Runs may call it from any goroutine.
func Note(line string) {
	notes.Lock()
	defer notes.Unlock()
	if notes.sink != nil {
		notes.sink(line)
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"meerkat"
	"meerkat/internal/checker"
	"meerkat/internal/timestamp"
	gen "meerkat/internal/workload"
)

// Spans are recorded from outside the program, around Client.Run and inside
// the function it calls back:
//
//	run            one spec, id = client#seq, Run entry to Run return
//	└ attempt      one call of the function; ends where the next one starts
//	  ├ execute    function entry to function return: the read round
//	  └ commit     function return to Run return, on the attempt that commits
//	    or abort_backoff
//	               function return to the next function entry: the failed
//	               validation plus the backoff sleep
//
// A span's self time is its duration minus its children's, so run's self time
// is what Client.Run spends before the first attempt.

// traceClock is the zero of every span time.
var traceClock = time.Now()

func traceNow() int64 { return int64(time.Since(traceClock)) }

type attemptSpan struct{ entry, ret int64 }

type runSpan struct {
	seq          uint32
	window       int32
	start, end   int64
	first, count uint32 // its attempts: workerTrace.attempts[first : first+count]
	readOnly     bool
	roFast       bool // committed on the read-only fast path
	failed       bool
}

// workerTrace is one worker's in-memory trace and history.
type workerTrace struct {
	runs     []runSpan
	attempts []attemptSpan
	history  []checker.CommittedTxn

	start int64
	first uint32
	last  *meerkat.Txn
}

func (tr *workerTrace) begin() {
	tr.first = uint32(len(tr.attempts))
	tr.start = traceNow()
}

func (w *worker) execTraced(t *meerkat.Txn) error {
	entry := traceNow()
	err := w.exec(t)
	w.tr.attempts = append(w.tr.attempts, attemptSpan{entry, traceNow()})
	w.tr.last = t
	return err
}

func (tr *workerTrace) end(window int, s *spec, err error) {
	r := runSpan{
		seq: uint32(len(tr.runs)), window: int32(window),
		start: tr.start, end: traceNow(),
		first: tr.first, count: uint32(len(tr.attempts)) - tr.first,
		readOnly: s.readOnly(), failed: err != nil,
	}
	if err == nil {
		t := tr.last
		r.roFast = t.CommittedReadOnly()
		tr.history = append(tr.history, checker.CommittedTxn{
			ID: t.ID(), TS: t.Timestamp(),
			ReadSet: t.ReadSet(), WriteSet: t.WriteSet(), OpSet: t.OpSet(),
			ReadOnly: r.roFast,
		})
	}
	tr.runs = append(tr.runs, r)
}

// spanSummary is what the per-layer meerkat.* metrics need from the spans of
// the measured window (warm-up and probe runs excluded).
type spanSummary struct {
	runs, attempts, roSpecs, roFast    int
	run, execute, commit, abortBackoff int64 // summed durations, ns
	executeP50, commitP50              float64
}

func summarize(ws []*worker) spanSummary {
	var s spanSummary
	var executes, commits []int64
	for _, w := range ws {
		tr := w.tr
		for i := range tr.runs {
			r := &tr.runs[i]
			if r.window < 1 || r.failed || r.count == 0 {
				continue
			}
			s.runs++
			s.attempts += int(r.count)
			s.run += r.end - r.start
			if r.readOnly {
				s.roSpecs++
				if r.roFast {
					s.roFast++
				}
			}
			as := tr.attempts[r.first : r.first+r.count]
			for j, a := range as {
				s.execute += a.ret - a.entry
				executes = append(executes, a.ret-a.entry)
				if j+1 < len(as) {
					s.abortBackoff += as[j+1].entry - a.ret
				} else {
					s.commit += r.end - a.ret
					if !r.readOnly {
						commits = append(commits, r.end-a.ret)
					}
				}
			}
		}
	}
	s.executeP50 = exactQuantile(executes, 0.5)
	s.commitP50 = exactQuantile(commits, 0.5)
	return s
}

// traceCap bounds how many run spans of each worker reach the trace file
// (the metrics use every span); a full window would be hundreds of MB.
const traceCap = 5000

// writeTrace writes the window's spans as one JSON object per line inside a
// JSON array. Times are nanoseconds since the process started tracing.
func writeTrace(path string, ws []*worker, window int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	first := true
	span := func(name, id, parent string, start, end int64) {
		sep := ",\n"
		if first {
			sep, first = "[\n", false
		}
		fmt.Fprintf(bw, `%s{"name":%q,"id":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`, sep, name, id, parent, start, end)
	}
	for _, w := range ws {
		written := 0
		for i := range w.tr.runs {
			r := &w.tr.runs[i]
			if int(r.window) != window || r.count == 0 || written == traceCap {
				continue
			}
			written++
			run := fmt.Sprintf("%d#%d", w.id, r.seq)
			span("run", run, "", r.start, r.end)
			as := w.tr.attempts[r.first : r.first+r.count]
			for j, a := range as {
				att := fmt.Sprintf("%s/%d", run, j)
				end, tail := r.end, "commit"
				if j+1 < len(as) {
					end, tail = as[j+1].entry, "abort_backoff"
				} else if r.failed {
					tail = "failed"
				}
				span("attempt", att, run, a.entry, end)
				span("execute", att+"/execute", att, a.entry, a.ret)
				span(tail, att+"/"+tail, att, a.ret, end)
			}
		}
	}
	if first {
		bw.WriteString("[")
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// checkHistory replays everything the traced pass committed, warm-up
// included, through the serializability checker and returns how many
// violations it found.
func checkHistory(ws []*worker, keys keyTable, valueSize int) (txns, violations int) {
	h := checker.New()
	initial := make(map[string]timestamp.Timestamp, len(keys))
	value := gen.Value(valueSize)
	for _, k := range keys {
		initial[k] = timestamp.Timestamp{Time: 1}
		h.SetInitialValue(k, value)
	}
	for _, w := range ws {
		for _, t := range w.tr.history {
			h.Add(t)
		}
	}
	return h.Len(), len(h.Check(initial)) + len(h.CheckUniqueTimestamps())
}

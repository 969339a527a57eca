package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// progressMeter is the -progress live view of a -kernel run: a
// clique.WithRoundHook tap that repaints one status line in place
// (carriage return, no scrollback spam) with the cumulative round
// count, routed words, and the rounds/sec rate since the run started.
// The engine invokes round hooks synchronously, so the repaint is
// throttled to at most one write per refresh interval; finish prints
// the final totals and a newline so the stats table that follows
// starts on a clean line.
type progressMeter struct {
	w     io.Writer
	start time.Time
	every time.Duration

	mu     sync.Mutex
	rounds int
	words  uint64
	last   time.Time
}

// newProgressMeter returns a meter repainting to w at most every
// refresh interval (<= 0 selects 100ms).
func newProgressMeter(w io.Writer, refresh time.Duration) *progressMeter {
	if refresh <= 0 {
		refresh = 100 * time.Millisecond
	}
	now := time.Now()
	return &progressMeter{w: w, start: now, every: refresh, last: now}
}

// hook is the engine round tap; install with clique.WithRoundHook.
func (p *progressMeter) hook(rs engine.RoundStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rounds++
	p.words += rs.Msgs // one budgeted word per routed message
	now := time.Now()
	if now.Sub(p.last) < p.every {
		return
	}
	p.last = now
	p.paint(now, "")
}

// finish repaints the final totals and terminates the line.
func (p *progressMeter) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paint(time.Now(), "\n")
}

// paint writes one status line; callers hold p.mu.
func (p *progressMeter) paint(now time.Time, end string) {
	elapsed := now.Sub(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.rounds) / elapsed
	}
	fmt.Fprintf(p.w, "\r\x1b[Kround %-8d %12d words  %10.0f rounds/s%s",
		p.rounds, p.words, rate, end)
}

// isTerminal reports whether w is a character device — the -progress
// auto-disable check, so redirected or piped stderr never receives
// control characters.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

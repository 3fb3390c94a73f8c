package main

import (
	"fmt"
	"sort"

	"qsub/internal/relation"
)

// gate is the correctness verdict of one run.
type gate struct {
	// Frame accounting over every session and every cycle in its scope:
	// expected frames, handled frames and the shortfall.
	expected, handled, lost uint64
	// Answers checked against direct range evaluation after the closing
	// full-answer cycle, and how many differed.
	answers, wrongAnswers int
	sessions              int
	problems              []string
}

func (g *gate) problem(format string, args ...any) {
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool { return len(g.problems) == 0 }

// auditFrames checks each session's answer stream against the cycle
// table. A session bound to channel ch in cycle k must handle every
// message cycle k published on ch, so the per-cycle frame count is
// Σ messages(ch) × sessions(ch) exactly. A session's scope runs from the
// cycle of its first frame to the closing cycle, or for a leaver to the
// last cycle sent before it was told to leave. Within scope each run of
// frames between two channel assignments must start at a cycle's first
// sequence number on its channel, be gap-free and duplicate-free, end
// at a cycle's last, and the runs must cover consecutive cycles.
func (d *deployment) auditFrames(closing int) gate {
	var g gate
	t := &d.table
	for _, s := range d.sessions {
		end := closing
		if la := int(s.leaveAfter.Load()); la == stays {
			g.sessions++
		} else {
			end = la
		}
		if len(s.segs) == 0 {
			if end == closing {
				g.problem("session %d handled no frames", s.id)
				g.expected++ // owed at least its closing answer
			}
			continue
		}
		prevCycle, prevCh := -1, s.segs[0].ch
		for _, seg := range s.segs {
			kf := t.cycleOf(seg.ch, seg.first)
			kl := t.cycleOf(seg.ch, seg.last)
			if kf < 0 || kl < 0 {
				g.problem("session %d: frames seq %d..%d on channel %d match no cycle", s.id, seg.first, seg.last, seg.ch)
				continue
			}
			if kf > end {
				break // past a leaver's scope
			}
			// Cycles this session skipped entirely owe their messages on
			// the channel it was last on.
			for k := prevCycle + 1; prevCycle >= 0 && k < kf; k++ {
				g.expected += t.cs[k].msgs[prevCh]
				g.problem("session %d missed cycle %d", s.id, k)
			}
			if prevCycle >= 0 && kf <= prevCycle {
				g.problem("session %d: cycle %d delivered on two channels", s.id, kf)
			}
			last, count := seg.last, seg.count-seg.dups
			if kl > end {
				// Beyond a leaver's scope; count only the in-scope frames.
				cut := t.cs[end].hi[seg.ch]
				count -= last - cut
				last, kl = cut, end
			}
			if seg.first != t.hiBefore(kf, seg.ch)+1 {
				g.problem("session %d: channel %d run starts at seq %d, mid-cycle %d", s.id, seg.ch, seg.first, kf)
			}
			if seg.dups > 0 {
				g.problem("session %d: %d duplicate frames on channel %d", s.id, seg.dups, seg.ch)
			}
			want := t.cs[kl].hi[seg.ch] - t.hiBefore(kf, seg.ch)
			if count != want {
				g.problem("session %d: %d frames on channel %d in cycles %d..%d, want %d", s.id, count, seg.ch, kf, kl, want)
			}
			g.expected += want
			g.handled += min(count, want)
			prevCycle, prevCh = kl, seg.ch
		}
		for k := prevCycle + 1; prevCycle >= 0 && k <= end; k++ {
			g.expected += t.cs[k].msgs[prevCh]
			g.problem("session %d missed cycle %d", s.id, k)
		}
	}
	g.lost = g.expected - g.handled
	return g
}

// auditAnswers compares every remaining session's extracted answer with
// direct range evaluation on the relation, after the closing
// full-answer cycle.
func (d *deployment) auditAnswers(g *gate, mirror *relation.Relation) {
	for _, s := range d.sessions {
		if s.leaveAfter.Load() != stays {
			continue
		}
		for _, q := range s.queries {
			g.answers++
			got := s.nc.Extractor().Answer(q.ID)
			want := mirror.Search(q.Region)
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			if !sameTuples(got, want) {
				g.wrongAnswers++
				g.problem("session %d query %d: extracted %d tuples, relation holds %d", s.id, q.ID, len(got), len(want))
			}
		}
	}
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Pos != b[i].Pos {
			return false
		}
	}
	return true
}

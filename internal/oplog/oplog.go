// Package oplog is the structured logging and monitoring substrate the
// paper's Section 6.3 tells cloud applications to build early: because the
// platform is a variable black box, "extensive monitoring and logging
// facilities are necessary to not only diagnose problems but also to
// determine how the application is behaving".
//
// A Log fans records out to streaming sinks (aggregators that never store
// the stream) and keeps a bounded ring of recent records for diagnosis.
// ModisAzure emits one record per task execution; the paper's Table 2 and
// Fig. 7 are then *derived from the log*, exactly as the authors derived
// them from their production logs.
package oplog

import (
	"fmt"
	"time"
)

// Severity classifies a record.
type Severity int

// Severities.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warning:
		return "WARN"
	default:
		return "ERROR"
	}
}

// Record is one structured log entry.
type Record struct {
	Time     time.Duration // virtual time
	Severity Severity
	Source   string // emitting component, e.g. "worker42"
	Category string // domain grouping, e.g. task type
	Event    string // what happened, e.g. outcome class
	Detail   string // free text

	// Task and Attempt name the task execution a record reports (Task 0:
	// none). They are kept as numbers so emitting a record formats nothing;
	// String renders them as "task N attempt M" in place of Detail.
	Task    uint64
	Attempt int
}

// String renders the record; the text is built only here, when printed.
func (r Record) String() string {
	detail := r.Detail
	if r.Task != 0 {
		detail = fmt.Sprintf("task %d attempt %d", r.Task, r.Attempt)
	}
	return fmt.Sprintf("[%v] %s %s %s/%s %s", r.Time, r.Severity, r.Source, r.Category, r.Event, detail)
}

// Sink consumes records as they are emitted.
type Sink func(Record)

// Log is a fan-out log with a bounded ring of recent records. The zero
// value is unusable; construct with New.
type Log struct {
	ring  []Record
	next  int
	count uint64
	sinks []Sink
}

// New creates a log retaining the last ringSize records (ringSize ≥ 0).
func New(ringSize int) *Log {
	if ringSize < 0 {
		panic("oplog: negative ring size")
	}
	return &Log{ring: make([]Record, 0, ringSize)}
}

// Subscribe attaches a streaming sink; every subsequent Emit calls it.
func (l *Log) Subscribe(s Sink) { l.sinks = append(l.sinks, s) }

// Emit records an entry.
func (l *Log) Emit(r Record) {
	l.count++
	if cap(l.ring) > 0 {
		if len(l.ring) < cap(l.ring) {
			l.ring = append(l.ring, r)
		} else {
			l.ring[l.next] = r
		}
		l.next = (l.next + 1) % cap(l.ring)
	}
	for _, s := range l.sinks {
		s(r)
	}
}

// Count returns the total records ever emitted.
func (l *Log) Count() uint64 { return l.count }

// Recent returns the retained records, oldest first.
func (l *Log) Recent() []Record {
	if len(l.ring) < cap(l.ring) {
		return append([]Record(nil), l.ring...)
	}
	out := make([]Record, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// TaxonomyAnalyzer aggregates the failure-taxonomy view the paper's Table 2
// reports: counts per category and per event, plus a daily breakdown of one
// tracked event (Fig. 7's "VM execution timeout"). Its sink runs once per
// task execution, so it hashes nothing: the daily counts are slices indexed
// by day and the category and event counts are short key lists.
type TaxonomyAnalyzer struct {
	TrackedEvent string

	byCategory, byEvent      tally
	dailyTotal, dailyTracked []uint64
	totalRecorded            uint64
}

// tally counts records per key. A campaign has 4 categories and at most 18
// events; over so few keys a linear scan is cheaper than hashing the key.
type tally struct {
	keys []string
	n    []uint64
}

func (t *tally) inc(key string) {
	for i, k := range t.keys {
		if k == key {
			t.n[i]++
			return
		}
	}
	t.keys = append(t.keys, key)
	t.n = append(t.n, 1)
}

func (t *tally) get(key string) uint64 {
	for i, k := range t.keys {
		if k == key {
			return t.n[i]
		}
	}
	return 0
}

// NewTaxonomyAnalyzer creates an analyzer tracking the daily share of one
// event class.
func NewTaxonomyAnalyzer(trackedEvent string) *TaxonomyAnalyzer {
	return &TaxonomyAnalyzer{TrackedEvent: trackedEvent}
}

// Sink returns the streaming sink to subscribe.
func (a *TaxonomyAnalyzer) Sink() Sink {
	return func(r Record) {
		a.totalRecorded++
		a.byCategory.inc(r.Category)
		a.byEvent.inc(r.Event)
		day := int(r.Time / (24 * time.Hour))
		for len(a.dailyTotal) <= day {
			a.dailyTotal = append(a.dailyTotal, 0)
			a.dailyTracked = append(a.dailyTracked, 0)
		}
		a.dailyTotal[day]++
		if r.Event == a.TrackedEvent {
			a.dailyTracked[day]++
		}
	}
}

// Total returns the records analyzed.
func (a *TaxonomyAnalyzer) Total() uint64 { return a.totalRecorded }

// ByCategory returns the records of one category.
func (a *TaxonomyAnalyzer) ByCategory(category string) uint64 { return a.byCategory.get(category) }

// ByEvent returns the records of one event class.
func (a *TaxonomyAnalyzer) ByEvent(event string) uint64 { return a.byEvent.get(event) }

// EventShare returns an event's fraction of all records.
func (a *TaxonomyAnalyzer) EventShare(event string) float64 {
	if a.totalRecorded == 0 {
		return 0
	}
	return float64(a.ByEvent(event)) / float64(a.totalRecorded)
}

// DailyTrackedShare returns the tracked event's percentage on one day.
func (a *TaxonomyAnalyzer) DailyTrackedShare(day int) float64 {
	if day < 0 || day >= len(a.dailyTotal) || a.dailyTotal[day] == 0 {
		return 0
	}
	return float64(a.dailyTracked[day]) / float64(a.dailyTotal[day]) * 100
}

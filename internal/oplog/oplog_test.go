package oplog

import (
	"strings"
	"testing"
	"time"
)

func rec(day int, category, event string) Record {
	return Record{Time: time.Duration(day) * 24 * time.Hour, Category: category, Event: event}
}

func TestEmitAndCount(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Emit(rec(0, "c", "e"))
	}
	if l.Count() != 10 {
		t.Fatalf("count = %d", l.Count())
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Emit(Record{Time: time.Duration(i) * time.Second, Detail: string(rune('a' + i))})
	}
	got := l.Recent()
	if len(got) != 3 {
		t.Fatalf("recent = %d records", len(got))
	}
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Detail != want {
			t.Fatalf("recent[%d] = %q, want %q (oldest-first order)", i, got[i].Detail, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	l := New(10)
	l.Emit(Record{Detail: "x"})
	l.Emit(Record{Detail: "y"})
	got := l.Recent()
	if len(got) != 2 || got[0].Detail != "x" {
		t.Fatalf("recent = %v", got)
	}
}

func TestZeroRingStillCounts(t *testing.T) {
	l := New(0)
	l.Emit(Record{})
	if l.Count() != 1 || len(l.Recent()) != 0 {
		t.Fatal("zero-ring log broken")
	}
}

func TestSinksReceiveAll(t *testing.T) {
	l := New(0)
	var a, b int
	l.Subscribe(func(Record) { a++ })
	l.Subscribe(func(Record) { b++ })
	for i := 0; i < 7; i++ {
		l.Emit(Record{})
	}
	if a != 7 || b != 7 {
		t.Fatalf("sinks got %d/%d, want 7/7", a, b)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Time: time.Second, Severity: Error, Source: "w1", Category: "Reprojection", Event: "Unknown failure", Detail: "task 9"}
	s := r.String()
	for _, part := range []string{"ERROR", "w1", "Reprojection", "Unknown failure", "task 9"} {
		if !strings.Contains(s, part) {
			t.Fatalf("record string %q missing %q", s, part)
		}
	}
	if Info.String() != "INFO" || Warning.String() != "WARN" {
		t.Fatal("severity strings wrong")
	}
}

// TestTaskRecordString: a record that carries its task execution as
// numbers prints "task N attempt M" where the free-text Detail would go,
// exactly as the text the record was once built with.
func TestTaskRecordString(t *testing.T) {
	r := Record{Time: 90 * time.Minute, Severity: Info, Source: "worker3", Category: "Reduction", Event: "Success", Task: 4711, Attempt: 2}
	want := "[1h30m0s] INFO worker3 Reduction/Success task 4711 attempt 2"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	old := r
	old.Task, old.Attempt, old.Detail = 0, 0, "task 4711 attempt 2"
	if old.String() != want {
		t.Fatalf("Detail form = %q, want %q", old.String(), want)
	}
}

func TestTaxonomyAnalyzer(t *testing.T) {
	l := New(0)
	a := NewTaxonomyAnalyzer("VM execution timeout")
	l.Subscribe(a.Sink())

	// Day 0: 8 successes, 2 timeouts. Day 1: 5 successes.
	for i := 0; i < 8; i++ {
		l.Emit(rec(0, "Reprojection", "Success"))
	}
	for i := 0; i < 2; i++ {
		l.Emit(rec(0, "Reprojection", "VM execution timeout"))
	}
	for i := 0; i < 5; i++ {
		l.Emit(rec(1, "Reduction", "Success"))
	}

	if a.Total() != 15 {
		t.Fatalf("total = %d", a.Total())
	}
	if a.ByCategory("Reprojection") != 10 || a.ByCategory("Reduction") != 5 {
		t.Fatalf("categories = %d, %d", a.ByCategory("Reprojection"), a.ByCategory("Reduction"))
	}
	if got := a.EventShare("Success"); got != 13.0/15 {
		t.Fatalf("success share = %v", got)
	}
	if got := a.DailyTrackedShare(0); got != 20 {
		t.Fatalf("day-0 timeout share = %v, want 20%%", got)
	}
	if got := a.DailyTrackedShare(1); got != 0 {
		t.Fatalf("day-1 timeout share = %v, want 0", got)
	}
	if got := a.DailyTrackedShare(99); got != 0 {
		t.Fatalf("empty day share = %v", got)
	}
	if a.ByEvent("Success") != 13 || a.ByEvent("VM execution timeout") != 2 || a.ByEvent("absent") != 0 {
		t.Fatalf("events = %d, %d, %d", a.ByEvent("Success"), a.ByEvent("VM execution timeout"), a.ByEvent("absent"))
	}
}

func TestAnalyzerEmptyShares(t *testing.T) {
	a := NewTaxonomyAnalyzer("x")
	if a.EventShare("x") != 0 {
		t.Fatal("empty analyzer share nonzero")
	}
}

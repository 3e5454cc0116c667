package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestTraceRoundTrip: a trace read back and written again must be the
// same bytes, so every field, the uplink lines and the header survive.
func TestTraceRoundTrip(t *testing.T) {
	res, err := Run(testEnv(t), newFake(), 0, 30, 62)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no captures simulated")
	}
	// The fake system never sets the flags; one record sets them all.
	res.Records = append(res.Records, Record{
		Day: 61, Dropped: true, TrueCoverage: 0.9, PerBandBytes: []int64{1, 2}, PSNR: math.NaN(),
		RefAge: -1, RefMiss: true, Guaranteed: true, DownDropped: true, DownCorrupted: true,
	})
	first, err := TraceBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	again, err := TraceBytes(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("write -> read -> write changed the trace bytes")
	}
}

// TestTraceDetectsEveryRecordField makes WriteTrace the equality oracle:
// changing any Record field must change the trace bytes, and two NaN
// PSNRs, whatever their bits, must write the same bytes.
func TestTraceDetectsEveryRecordField(t *testing.T) {
	base := Record{
		Day: 3, Loc: 1, Sat: 2, TrueCoverage: 0.25, DownBytes: 1000,
		PerBandBytes: []int64{400, 600}, DownTileFrac: 0.5, PSNR: 41.5, RefAge: 7,
	}
	trace := func(r Record) []byte {
		t.Helper()
		b, err := TraceBytes(&Result{System: "t", Days: 1, Records: []Record{r}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	nanA, nanB := base, base
	nanA.PSNR, nanB.PSNR = math.NaN(), math.Float64frombits(0x7ff8000000000001)
	if !bytes.Equal(trace(nanA), trace(nanB)) {
		t.Fatal("two NaN PSNRs wrote different bytes")
	}

	mutations := map[string]func(*Record){
		"day":           func(r *Record) { r.Day++ },
		"loc":           func(r *Record) { r.Loc++ },
		"sat":           func(r *Record) { r.Sat++ },
		"dropped":       func(r *Record) { r.Dropped = true },
		"coverage":      func(r *Record) { r.TrueCoverage += 0.01 },
		"bytes":         func(r *Record) { r.DownBytes++ },
		"tilefrac":      func(r *Record) { r.DownTileFrac += 0.01 },
		"psnr":          func(r *Record) { r.PSNR += 0.01 },
		"psnr-nan":      func(r *Record) { r.PSNR = math.NaN() },
		"refage":        func(r *Record) { r.RefAge++ },
		"refmiss":       func(r *Record) { r.RefMiss = true },
		"guarantee":     func(r *Record) { r.Guaranteed = true },
		"downdropped":   func(r *Record) { r.DownDropped = true },
		"downcorrupted": func(r *Record) { r.DownCorrupted = true },
		"bandlen":       func(r *Record) { r.PerBandBytes = []int64{400} },
		"bandval":       func(r *Record) { r.PerBandBytes = []int64{400, 601} },
	}
	want := trace(base)
	mutated := map[string]bool{}
	//lint:deterministic independent per-mutation assertions; visit order cannot affect the outcome
	for name, mutate := range mutations {
		got := base
		got.PerBandBytes = append([]int64(nil), base.PerBandBytes...)
		mutate(&got)
		if bytes.Equal(trace(got), want) {
			t.Fatalf("%s mutation left the trace bytes unchanged", name)
		}
		bv, gv := reflect.ValueOf(base), reflect.ValueOf(got)
		for i := 0; i < bv.NumField(); i++ {
			if !reflect.DeepEqual(bv.Field(i).Interface(), gv.Field(i).Interface()) {
				mutated[bv.Type().Field(i).Name] = true
			}
		}
	}
	// A new Record field needs a row above, or the trace may miss it.
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Record{})) {
		if !mutated[f.Name] {
			t.Errorf("no mutation covers Record.%s", f.Name)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"system":"x","days":1,"version":99}`)); err == nil {
		t.Fatal("expected version error")
	}
	bad := fmt.Sprintf(`{"system":"x","days":1,"version":%d,"generator":"g"}`, traceVersion) + "\n[1,2,3]\n"
	if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("expected record parse error")
	}
}

// NaN PSNR must not break serialisation (dropped captures have NaN).
func TestTraceHandlesNaN(t *testing.T) {
	res := &Result{
		System:       "t",
		Days:         1,
		UpBytesByDay: map[int]int64{0: 5},
		Records:      []Record{{Day: 0, Dropped: true, PSNR: math.NaN()}},
	}
	var buf bytes.Buffer
	err := WriteTrace(&buf, res)
	if err == nil {
		back, rerr := ReadTrace(&buf)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(back.Records) != 1 {
			t.Fatalf("records = %d", len(back.Records))
		}
		return
	}
	// encoding/json rejects NaN; Run stores NaN for dropped captures, so
	// WriteTrace must sanitise. If we got here the sanitising is missing.
	t.Fatalf("WriteTrace failed on NaN PSNR: %v", err)
}

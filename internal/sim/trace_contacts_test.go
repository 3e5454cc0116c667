package sim

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// contactResult is a small run with a contact log in scheduler (Sat,
// Station, Window) order — NOT the trace file's sort order.
func contactResult() *Result {
	return &Result{
		System:       "t",
		Days:         2,
		UpBytesByDay: map[int]int64{30: 100, 31: 80},
		Records:      []Record{{Day: 30, Loc: 0, Sat: 1, PSNR: 33}},
		Contacts: []ContactRecord{
			{Sat: 0, Station: 1, Window: 0, Day: 31, Bytes: 40},
			{Sat: 1, Station: 0, Window: 0, Day: 30, Bytes: 120},
			{Sat: 1, Station: 0, Window: 1, Day: 31, Bytes: 40},
			{Sat: 2, Station: 1, Window: 0, Day: 30, Bytes: 0},
		},
	}
}

func TestTraceContactsRoundTrip(t *testing.T) {
	res := contactResult()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Contacts) != len(res.Contacts) {
		t.Fatalf("contacts %d != %d", len(back.Contacts), len(res.Contacts))
	}
	// The file carries contacts sorted by (station, day, sat, window);
	// compare as sets by sorting both sides the same way.
	key := func(c ContactRecord) [4]int { return [4]int{c.Station, c.Day, c.Sat, c.Window} }
	want := append([]ContactRecord(nil), res.Contacts...)
	sort.Slice(want, func(i, j int) bool {
		a, b := key(want[i]), key(want[j])
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	if !reflect.DeepEqual(back.Contacts, want) {
		t.Fatalf("restored contacts:\n%+v\nwant (station, day, sat, window) order:\n%+v", back.Contacts, want)
	}
	for i := 1; i < len(back.Contacts); i++ {
		if k1, k2 := key(back.Contacts[i-1]), key(back.Contacts[i]); !(k1[0] < k2[0] ||
			(k1[0] == k2[0] && (k1[1] < k2[1] || (k1[1] == k2[1] && k1[2] <= k2[2])))) {
			t.Fatalf("contact lines not sorted by (station, day, sat): %v then %v", k1, k2)
		}
	}
	// Records and uplink lines survive alongside the contact lines.
	if len(back.Records) != 1 || back.Records[0].PSNR != 33 {
		t.Fatalf("records corrupted: %+v", back.Records)
	}
	if back.UpBytesByDay[30] != 100 || back.UpBytesByDay[31] != 80 {
		t.Fatalf("uplink lines corrupted: %+v", back.UpBytesByDay)
	}
}

// TestTraceContactsByteIdentical: two dumps of the same result — and of a
// contact-log permutation of it — must be byte-identical, so constellation
// trace files diff clean across reruns.
func TestTraceContactsByteIdentical(t *testing.T) {
	var a, b, c bytes.Buffer
	if err := WriteTrace(&a, contactResult()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, contactResult()); err != nil {
		t.Fatal(err)
	}
	perm := contactResult()
	perm.Contacts[0], perm.Contacts[3] = perm.Contacts[3], perm.Contacts[0]
	perm.Contacts[1], perm.Contacts[2] = perm.Contacts[2], perm.Contacts[1]
	if err := WriteTrace(&c, perm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("reruns produced different trace bytes")
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("contact-log order leaked into the trace bytes")
	}
	// WriteTrace must not mutate the caller's contact log while sorting.
	res := contactResult()
	want := append([]ContactRecord(nil), res.Contacts...)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Contacts, want) {
		t.Fatal("WriteTrace reordered the caller's contact log")
	}
}

// TestTraceWithoutContactsUnchanged: a flat-budget run (no contact log)
// writes no contact lines and reads back without a contact log.
func TestTraceWithoutContactsUnchanged(t *testing.T) {
	res := contactResult()
	res.Contacts = nil
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("ctStation")) {
		t.Fatal("contact lines written for a contact-free run")
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Contacts != nil {
		t.Fatalf("phantom contacts restored: %+v", back.Contacts)
	}
}

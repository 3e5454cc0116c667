package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Trace is the serialisable form of a simulation run: the header describes
// the workload, each line of the body is one capture record. The format is
// JSON-lines so multi-gigabyte traces stream without loading whole.
type TraceHeader struct {
	System    string `json:"system"`
	Days      int    `json:"days"`
	Version   int    `json:"version"`
	Generator string `json:"generator"`
}

// traceVersion is bumped when Record's serialised shape changes.
// Version 2 dropped the EncodeSec, CloudSec and ChangeSec keys.
const traceVersion = 2

// WriteTrace streams a result as a JSON-lines trace: one header line
// followed by one line per record, then one line per (day, uplink bytes)
// pair.
func WriteTrace(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := TraceHeader{System: res.System, Days: res.Days, Version: traceVersion, Generator: "earthplus-sim"}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("sim: writing trace header: %w", err)
	}
	for i := range res.Records {
		if err := enc.Encode(toWire(&res.Records[i])); err != nil {
			return fmt.Errorf("sim: writing record %d: %w", i, err)
		}
	}
	type upLine struct {
		UpDay   int   `json:"upDay"`
		UpBytes int64 `json:"upBytes"`
	}
	// Sorted, not map order: two identical runs must dump byte-identical
	// trace FILES, and Go randomises map iteration.
	days := make([]int, 0, len(res.UpBytesByDay))
	for day := range res.UpBytesByDay {
		days = append(days, day)
	}
	sort.Ints(days)
	for _, day := range days {
		if err := enc.Encode(upLine{UpDay: day, UpBytes: res.UpBytesByDay[day]}); err != nil {
			return fmt.Errorf("sim: writing uplink line: %w", err)
		}
	}
	// Per-station contact lines, sorted by (station, day, sat, window) so
	// constellation dump files are byte-identical across reruns regardless
	// of the scheduler's booking order.
	cts := make([]ContactRecord, len(res.Contacts))
	copy(cts, res.Contacts)
	sort.Slice(cts, func(i, j int) bool {
		if cts[i].Station != cts[j].Station {
			return cts[i].Station < cts[j].Station
		}
		if cts[i].Day != cts[j].Day {
			return cts[i].Day < cts[j].Day
		}
		if cts[i].Sat != cts[j].Sat {
			return cts[i].Sat < cts[j].Sat
		}
		return cts[i].Window < cts[j].Window
	})
	for i := range cts {
		if err := enc.Encode(toWireContact(&cts[i])); err != nil {
			return fmt.Errorf("sim: writing contact line: %w", err)
		}
	}
	return bw.Flush()
}

// TraceBytes returns res as WriteTrace writes it. Two runs produced the
// same result exactly when their TraceBytes are equal: records, per-day
// uplink bytes and the contact log in one comparison.
func TraceBytes(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	err := WriteTrace(&buf, res)
	return buf.Bytes(), err
}

// wireContact is ContactRecord's JSON-lines shape. The ctStation key also
// disambiguates contact lines from records and uplink lines on read.
type wireContact struct {
	CtStation int   `json:"ctStation"`
	CtDay     int   `json:"ctDay"`
	CtSat     int   `json:"ctSat"`
	CtWindow  int   `json:"ctWindow"`
	CtBytes   int64 `json:"ctBytes"`
}

func toWireContact(c *ContactRecord) wireContact {
	return wireContact{
		CtStation: c.Station, CtDay: c.Day, CtSat: c.Sat,
		CtWindow: c.Window, CtBytes: c.Bytes,
	}
}

// wireRecord is Record's JSON shape: PSNR is a pointer so the NaN of
// dropped captures round-trips as null (encoding/json rejects NaN).
type wireRecord struct {
	Record
	PSNR *float64 `json:"PSNR,omitempty"`
}

// wireInfPSNR stands in for an infinite PSNR (bit-exact reconstruction);
// JSON cannot carry Inf.
const wireInfPSNR = 999.0

func toWire(r *Record) wireRecord {
	w := wireRecord{Record: *r}
	w.Record.PSNR = 0
	switch {
	case math.IsInf(r.PSNR, 1):
		v := wireInfPSNR
		w.PSNR = &v
	case !math.IsNaN(r.PSNR) && !math.IsInf(r.PSNR, 0):
		v := r.PSNR
		w.PSNR = &v
	}
	return w
}

func (w wireRecord) record() Record {
	r := w.Record
	if w.PSNR != nil {
		r.PSNR = *w.PSNR
	} else {
		r.PSNR = math.NaN()
	}
	return r
}

// ReadTrace parses a trace written by WriteTrace back into a Result.
func ReadTrace(r io.Reader) (*Result, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr TraceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("sim: reading trace header: %w", err)
	}
	if hdr.Version != traceVersion {
		return nil, fmt.Errorf("sim: trace version %d unsupported (want %d)", hdr.Version, traceVersion)
	}
	res := &Result{System: hdr.System, Days: hdr.Days, UpBytesByDay: make(map[int]int64)}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("sim: reading trace line: %w", err)
		}
		// Uplink lines carry "upDay"; records do not.
		var up struct {
			UpDay   *int  `json:"upDay"`
			UpBytes int64 `json:"upBytes"`
		}
		if err := json.Unmarshal(raw, &up); err == nil && up.UpDay != nil {
			res.UpBytesByDay[*up.UpDay] = up.UpBytes
			continue
		}
		// Contact lines carry "ctStation"; records and uplink lines do not.
		var ct struct {
			CtStation *int `json:"ctStation"`
			wireContact
		}
		if err := json.Unmarshal(raw, &ct); err == nil && ct.CtStation != nil {
			res.Contacts = append(res.Contacts, ContactRecord{
				Station: *ct.CtStation, Day: ct.CtDay, Sat: ct.CtSat,
				Window: ct.CtWindow, Bytes: ct.CtBytes,
			})
			continue
		}
		var wr wireRecord
		if err := json.Unmarshal(raw, &wr); err != nil {
			return nil, fmt.Errorf("sim: parsing record: %w", err)
		}
		res.Records = append(res.Records, wr.record())
	}
	return res, nil
}

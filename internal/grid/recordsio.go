package grid

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// utf8BOM is the byte-order mark some exporters (notably Excel) prepend to
// UTF-8 CSV files. Left in place it becomes part of the first header field,
// silently corrupting the first attribute name (and breaking quoted fields).
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// ScanRecordsCSV reads raw point records from CSV — a header line followed by
// "lat,lon,v1,…,vp" rows with exactly nattrs value columns — and invokes fn
// for each parsed record in order, without materializing the whole stream.
// fn returning an error stops the scan and returns that error. This is the
// ingestion format of cmd/repart's streaming mode.
//
// A UTF-8 BOM at the start of the stream is stripped. Malformed rows are
// reported with their 1-based record index (the header is record 0) and,
// for arity errors, the observed vs expected field count.
func ScanRecordsCSV(r io.Reader, nattrs int, fn func(Record) error) error {
	if nattrs < 0 {
		return fmt.Errorf("grid: negative attribute count %d", nattrs)
	}
	br := bufio.NewReader(r)
	if lead, err := br.Peek(len(utf8BOM)); err == nil && bytes.Equal(lead, utf8BOM) {
		if _, err := br.Discard(len(utf8BOM)); err != nil {
			return fmt.Errorf("grid: records CSV: %w", err)
		}
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1 // arity is checked per record for better errors
	want := 2 + nattrs
	header, err := cr.Read()
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("grid: records CSV is empty")
		}
		return fmt.Errorf("grid: records CSV header: %w", err)
	}
	if len(header) != want {
		return fmt.Errorf("grid: records CSV header has %d fields, want %d (lat,lon + %d values)",
			len(header), want, nattrs)
	}
	rec := 0 // 1-based data record index
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		rec++
		if err != nil {
			return fmt.Errorf("grid: records CSV record %d: %w", rec, err)
		}
		if len(row) != want {
			return fmt.Errorf("grid: records CSV record %d: has %d fields, want %d (lat,lon + %d values)",
				rec, len(row), want, nattrs)
		}
		out := Record{Values: make([]float64, nattrs)}
		if out.Lat, err = strconv.ParseFloat(row[0], 64); err != nil {
			return fmt.Errorf("grid: records CSV record %d: lat %q: %w", rec, row[0], err)
		}
		if out.Lon, err = strconv.ParseFloat(row[1], 64); err != nil {
			return fmt.Errorf("grid: records CSV record %d: lon %q: %w", rec, row[1], err)
		}
		for k := 0; k < nattrs; k++ {
			if out.Values[k], err = strconv.ParseFloat(row[2+k], 64); err != nil {
				return fmt.Errorf("grid: records CSV record %d: value %d %q: %w", rec, k, row[2+k], err)
			}
		}
		if err := fn(out); err != nil {
			return err
		}
	}
}

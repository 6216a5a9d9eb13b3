package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	base := time.Unix(1700000000, 123456000).UTC()
	pkts := [][]byte{
		{0x01},
		bytes.Repeat([]byte{0xab}, 600),
		{},
	}
	for i, p := range pkts {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Millisecond), p); err != nil {
			t.Fatalf("WritePacket %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Header().LinkType != LinkTypeEthernet || r.Header().SnapLen != 65535 {
		t.Errorf("header = %+v", r.Header())
	}
	for i, want := range pkts {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !bytes.Equal(rec.Data, want) {
			t.Errorf("record %d data mismatch: %d vs %d bytes", i, len(rec.Data), len(want))
		}
		wantTS := base.Add(time.Duration(i) * time.Millisecond)
		if !rec.TS.Equal(wantTS) {
			t.Errorf("record %d ts = %v, want %v", i, rec.TS, wantTS)
		}
		if rec.OrigLen != uint32(len(want)) {
			t.Errorf("record %d origlen = %d", i, rec.OrigLen)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 64)
	big := bytes.Repeat([]byte{0x7f}, 1500)
	if err := w.WritePacket(time.Unix(0, 0), big); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 64 {
		t.Errorf("captured %d bytes, want 64", len(rec.Data))
	}
	if rec.OrigLen != 1500 {
		t.Errorf("origlen = %d, want 1500", rec.OrigLen)
	}
}

func TestBigEndianAndNanoMagic(t *testing.T) {
	// Hand-assemble a big-endian nanosecond file with one record.
	var buf bytes.Buffer
	hdr := make([]byte, globalHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], MagicNanoseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, recordHeaderLen)
	binary.BigEndian.PutUint32(rec[0:4], 100)
	binary.BigEndian.PutUint32(rec[4:8], 999) // 999 ns
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Header().NanoRes || r.Header().LinkType != LinkTypeRaw {
		t.Errorf("header = %+v", r.Header())
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.TS.UnixNano() != 100*1e9+999 {
		t.Errorf("ts = %v", got.TS.UnixNano())
	}
}

func TestBadMagicRejected(t *testing.T) {
	buf := bytes.NewBuffer(make([]byte, globalHeaderLen))
	if _, err := NewReader(buf); err == nil {
		t.Fatal("zero magic accepted")
	}
}

func TestTruncatedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4})
	w.Flush()
	raw := buf.Bytes()
	// Cut the file mid-record.
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
	// Cut the file mid-record-header.
	r, err = NewReader(bytes.NewReader(raw[:globalHeaderLen+4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("mid-header truncation should be an error, got %v", err)
	}
}

func TestEmptyFileIsCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf, LinkTypeEthernet, 65535).Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF on empty capture, got %v", err)
	}
}

// hugeRecord is a 40-byte capture: a global header with snap length 0 and
// one record header claiming a 1 GiB record that the file does not hold.
func hugeRecord() []byte {
	raw := make([]byte, globalHeaderLen+recordHeaderLen)
	binary.LittleEndian.PutUint32(raw[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint32(raw[20:24], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(raw[globalHeaderLen+8:], 1<<30)
	binary.LittleEndian.PutUint32(raw[globalHeaderLen+12:], 1<<30)
	return raw
}

// TestHugeCaptureLengthRefused: with snap length 0 nothing in the header
// bounds a record, so the reader must refuse a capture length past libpcap's
// maximum before allocating it.
func TestHugeCaptureLengthRefused(t *testing.T) {
	r, err := NewReader(bytes.NewReader(hugeRecord()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.Next()
	runtime.ReadMemStats(&after)
	if err == nil || err == io.EOF {
		t.Fatalf("a 1 GiB capture length was accepted: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxCapLen {
		t.Errorf("refusing the record allocated %d bytes", grew)
	}
}

// FuzzPcapReader reads arbitrary bytes as a capture file, record after
// record. Whatever the bytes, the reader must not panic, must end on an
// error or io.EOF, and must hand out no record longer than libpcap's
// maximum snap length. The seed corpus (testdata/fuzz) holds a small valid
// capture of each byte order and resolution, truncated ones, and the
// 40-byte file whose record header claims 1 GiB.
func FuzzPcapReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for {
			rec, err := r.Next()
			if err != nil {
				return
			}
			if len(rec.Data) > maxCapLen {
				t.Fatalf("a %d-byte record", len(rec.Data))
			}
		}
	})
}

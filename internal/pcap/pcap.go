// Package pcap reads and writes classic libpcap capture files (the format
// CAIDA traces are distributed in). Both microsecond and nanosecond magic
// variants and both byte orders are supported on read; writes use the
// microsecond little-endian form, which every tool understands.
package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

const (
	// MagicMicroseconds is the classic magic for microsecond timestamps.
	MagicMicroseconds = 0xa1b2c3d4
	// MagicNanoseconds marks nanosecond-resolution captures.
	MagicNanoseconds = 0xa1b23c4d

	// LinkTypeEthernet is the DLT for Ethernet frames.
	LinkTypeEthernet = 1
	// LinkTypeRaw is the DLT for raw IP packets (CAIDA traces are often
	// distributed without layer-2 headers).
	LinkTypeRaw = 101

	globalHeaderLen = 24
	recordHeaderLen = 16

	// maxCapLen is libpcap's MAXIMUM_SNAPLEN: no capture holds a longer
	// record, so a longer capture length is a corrupt header, refused before
	// anything is allocated for it — whatever the snap length says.
	maxCapLen = 262144
)

// Header is the global file header.
type Header struct {
	SnapLen  uint32
	LinkType uint32
	// NanoRes reports nanosecond timestamp resolution.
	NanoRes bool
}

// Record is one captured packet.
type Record struct {
	// TS is the capture timestamp.
	TS time.Time
	// OrigLen is the original packet length on the wire, which may exceed
	// len(Data) when the capture was truncated by the snap length.
	OrigLen uint32
	// Data is the captured bytes.
	Data []byte
}

// Writer writes a pcap file.
type Writer struct {
	w       *bufio.Writer
	snapLen uint32
	wrote   bool
}

// NewWriter creates a Writer that will emit a global header with the given
// link type and snap length on the first Write.
func NewWriter(w io.Writer, linkType, snapLen uint32) *Writer {
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<16), snapLen: snapLen}
	pw.writeHeader(linkType)
	return pw
}

func (w *Writer) writeHeader(linkType uint32) {
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)  // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4)  // version minor
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // thiszone
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkType)
	w.w.Write(hdr[:])
}

// WritePacket appends one record. Data longer than the snap length is
// truncated, with OrigLen preserving the full size.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	origLen := uint32(len(data))
	if w.snapLen > 0 && origLen > w.snapLen {
		data = data[:w.snapLen]
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], origLen)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// Flush writes buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads a pcap file.
type Reader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	hdr   Header
}

// NewReader parses the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read global header: %w", err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		pr.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		pr.order, pr.hdr.NanoRes = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		pr.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		pr.order, pr.hdr.NanoRes = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcap: bad magic %#08x", magicLE)
	}
	pr.hdr.SnapLen = pr.order.Uint32(hdr[16:20])
	pr.hdr.LinkType = pr.order.Uint32(hdr[20:24])
	return pr, nil
}

// Header returns the parsed global header.
func (r *Reader) Header() Header { return r.hdr }

// Next reads the next record. It returns io.EOF cleanly at end of file and
// io.ErrUnexpectedEOF on a truncated record. The returned Data is freshly
// allocated and safe to retain.
func (r *Reader) Next() (Record, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: read record header: %w", io.ErrUnexpectedEOF)
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > maxCapLen || r.hdr.SnapLen > 0 && capLen > r.hdr.SnapLen+65536 {
		return Record{}, fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcap: read %d-byte record: %w", capLen, io.ErrUnexpectedEOF)
	}
	nanos := int64(frac)
	if !r.hdr.NanoRes {
		nanos *= 1000
	}
	return Record{
		TS:      time.Unix(int64(sec), nanos).UTC(),
		OrigLen: origLen,
		Data:    data,
	}, nil
}

package obs

import (
	"encoding/binary"
	"fmt"
	"io"
)

// pcap file constants (libpcap classic format, microsecond timestamps).
const (
	pcapMagic    = 0xa1b2c3d4
	pcapVerMajor = 2
	pcapVerMinor = 4
	pcapSnaplen  = 65535
	pcapEthernet = 1
)

// PcapWriter streams frames into a libpcap capture readable by tcpdump
// and Wireshark, fed by link-level taps (nic RX delivery, both ends of
// a peer cable into one file).
type PcapWriter struct {
	w   io.Writer
	err error
}

// NewPcapWriter writes the global header and returns the writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVerMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVerMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnaplen)
	binary.LittleEndian.PutUint32(hdr[20:], pcapEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("obs: pcap header: %w", err)
	}
	return &PcapWriter{w: w}, nil
}

// WritePacket appends one captured frame with the given timestamp. The
// frame bytes are written synchronously, so callers may pass transient
// buffers (arena frames) without copying.
func (p *PcapWriter) WritePacket(tsNS int64, data []byte) error {
	if p.err != nil {
		return p.err
	}
	n := len(data)
	if n > pcapSnaplen {
		n = pcapSnaplen
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], uint32(tsNS/1e9))
	binary.LittleEndian.PutUint32(rec[4:], uint32(tsNS%1e9/1e3))
	binary.LittleEndian.PutUint32(rec[8:], uint32(n))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(data)))
	if _, err := p.w.Write(rec[:]); err != nil {
		p.err = err
		return err
	}
	if _, err := p.w.Write(data[:n]); err != nil {
		p.err = err
		return err
	}
	return nil
}

// Err reports the writer's sticky error.
func (p *PcapWriter) Err() error { return p.err }

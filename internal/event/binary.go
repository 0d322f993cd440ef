package event

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary codec: a compact format for large sequences. Layout:
//
//	magic "TSEQ1" (5 bytes)
//	uvarint typeCount, then typeCount strings (uvarint len + bytes)
//	uvarint eventCount, then per event:
//	    uvarint typeIndex, uvarint timestamp delta from the previous event
//
// Delta-encoded timestamps make dense logs a few bytes per event.

var binaryMagic = []byte("TSEQ1")

// EncodeBinary writes the sequence in the binary format. The sequence must
// be sorted (deltas are non-negative).
func EncodeBinary(w io.Writer, s Sequence) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic); err != nil {
		return err
	}
	// Type table in first-appearance order.
	index := make(map[Type]uint64, 16)
	var table []Type
	for _, e := range s {
		if _, ok := index[e.Type]; !ok {
			index[e.Type] = uint64(len(table))
			table = append(table, e.Type)
		}
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(table))); err != nil {
		return err
	}
	for _, typ := range table {
		if err := writeUvarint(uint64(len(typ))); err != nil {
			return err
		}
		if _, err := bw.WriteString(string(typ)); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(s))); err != nil {
		return err
	}
	prev := int64(0)
	for _, e := range s {
		if err := writeUvarint(index[e.Type]); err != nil {
			return err
		}
		if err := writeUvarint(uint64(e.Time - prev)); err != nil {
			return err
		}
		prev = e.Time
	}
	return bw.Flush()
}

// DecodeBinary reads a sequence written by EncodeBinary.
func DecodeBinary(r io.Reader) (Sequence, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("event: reading magic: %w", err)
	}
	if string(magic) != string(binaryMagic) {
		return nil, fmt.Errorf("event: bad magic %q", magic)
	}
	typeCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("event: type count: %w", err)
	}
	const maxTypes = 1 << 20
	if typeCount > maxTypes {
		return nil, fmt.Errorf("event: implausible type count %d", typeCount)
	}
	table := make([]Type, typeCount)
	for i := range table {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: type length: %w", err)
		}
		if n > 4096 {
			return nil, fmt.Errorf("event: implausible type length %d", n)
		}
		name := make([]byte, n)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("event: type name: %w", err)
		}
		if len(name) == 0 {
			return nil, fmt.Errorf("event: empty type name")
		}
		table[i] = Type(name)
	}
	eventCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("event: event count: %w", err)
	}
	const maxEvents = 1 << 30
	if eventCount > maxEvents {
		return nil, fmt.Errorf("event: implausible event count %d", eventCount)
	}
	// The count is untrusted: preallocate at most 64Ki events and let
	// append grow with the events actually read, so a short input cannot
	// claim gigabytes.
	s := make(Sequence, 0, min(eventCount, 1<<16))
	prev := int64(0)
	for i := uint64(0); i < eventCount; i++ {
		ti, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: event %d type: %w", i, err)
		}
		if ti >= typeCount {
			return nil, fmt.Errorf("event: event %d references type %d of %d", i, ti, typeCount)
		}
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: event %d delta: %w", i, err)
		}
		prev += int64(delta)
		s = append(s, Event{Type: table[ti], Time: prev})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

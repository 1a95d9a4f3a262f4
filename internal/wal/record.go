// Package wal is an append-only, crash-safe write-ahead log for the job
// service: length-prefixed, CRC32C-checksummed records appended to rotating
// segment files, periodically folded into a checkpoint so recovery cost
// stays bounded. The framing is deliberately dumb — recovery never needs an
// index, only a sequential scan that stops at the first torn or corrupt
// record and replays the clean prefix.
//
// The package is schema-agnostic: a Record carries a Type tag, the job it
// belongs to, and an opaque JSON payload whose shape the embedding store
// (internal/server) owns. The only type wal itself interprets is
// TypeCheckpoint, the compaction metadata record that opens every
// checkpoint file; which other records a checkpoint keeps is the
// embedder's call, and their frames are copied into it unchanged.
//
// Crash discipline (what a kill -9 can and cannot do):
//
//   - An append is a single write of one framed record, optionally followed
//     by fsync. A crash mid-write leaves a torn tail; the checksum catches
//     it and recovery truncates the file back to the last whole record.
//   - Rotation closes a full segment and creates the next; both halves are
//     individually durable, so a crash between them just leaves a complete
//     log with no open segment (recovery reopens or creates one).
//   - Compaction rotates, then writes the whole checkpoint to a temp file,
//     fsyncs it, renames it over the previous checkpoint, fsyncs the
//     directory, and only then deletes the segments it subsumed. A crash
//     before the rename leaves the old checkpoint + all segments (replayed
//     as before); after the rename, the new checkpoint names the segments
//     it covers, so a crash before their deletion merely replays them
//     idempotently.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Type tags a record with its lifecycle meaning. Except for TypeCheckpoint,
// the wal package treats types as opaque labels; the constants exist so the
// log and its embedder agree on spelling.
type Type string

const (
	// TypeSubmitted records a job accepted into the queue, with everything
	// needed to rebuild and re-enqueue it after a crash.
	TypeSubmitted Type = "submitted"
	// TypeStarted records a worker picking the job up.
	TypeStarted Type = "started"
	// TypeCaseDone records one finished grid cell (or a single job's one
	// run) with its captured result, so a restart resumes the sweep from
	// the last logged cell instead of from scratch.
	TypeCaseDone Type = "case_done"
	// TypeCancelRequested records a client-visible DELETE on a running
	// job: recovery must honour the verdict the client was given even if
	// the crash beat the worker to the terminal record.
	TypeCancelRequested Type = "cancel_requested"
	// TypeTerminal records the job's final state, report/result included.
	TypeTerminal Type = "terminal"
	// TypeCheckpoint opens every checkpoint file; its payload is
	// checkpointMeta, naming the segments the checkpoint subsumes.
	TypeCheckpoint Type = "checkpoint"
)

// Record is one WAL entry. Payload is opaque JSON owned by the embedder;
// the framing (length + CRC32C) wraps the record's own JSON encoding, so a
// Record round-trips byte-for-byte through encode -> decode -> encode.
type Record struct {
	Type    Type            `json:"type"`
	JobID   string          `json:"job_id,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// checkpointMeta is TypeCheckpoint's payload.
type checkpointMeta struct {
	// Through is the highest segment number the checkpoint subsumes;
	// recovery replays only segments numbered above it.
	Through int `json:"through"`
}

// castagnoli is the CRC32C table — the checksum storage systems use for
// torn-write detection, hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// headerBytes frames every record: 4-byte little-endian payload
	// length, 4-byte CRC32C of the payload.
	headerBytes = 8
	// maxRecordBytes bounds one record so a corrupt length field cannot
	// drive a multi-gigabyte allocation during recovery.
	maxRecordBytes = 64 << 20
)

// Encode returns the framed on-disk encoding of rec. Exported for tests
// and tooling that construct torn or hand-crafted log images.
func Encode(rec Record) ([]byte, error) {
	return appendFrame(nil, rec)
}

// appendFrame appends rec's frame to dst.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode %s record: %w", rec.Type, err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: %s record is %d bytes, over the %d-byte record bound", rec.Type, len(payload), maxRecordBytes)
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...), nil
}

// frameAt checks the frame at buf[off:] and returns its payload and the
// offset past it. ok is false when the frame is torn or corrupt — short
// header, short payload, zero or out-of-range length, or checksum mismatch.
func frameAt(buf []byte, off int64) (payload []byte, next int64, ok bool) {
	if int64(len(buf))-off < headerBytes {
		return nil, off, false
	}
	n := int64(binary.LittleEndian.Uint32(buf[off : off+4]))
	sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
	if n == 0 || n > maxRecordBytes || off+headerBytes+n > int64(len(buf)) {
		return nil, off, false
	}
	payload = buf[off+headerBytes : off+headerBytes+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, off, false
	}
	return payload, off + headerBytes + n, true
}

// decodeFrame decodes the record at buf[off:], returning the offset past
// it. ok is false when frameAt rejects the frame or its payload does not
// parse, in which case the frame and everything after it must be
// discarded (the clean-prefix rule).
func decodeFrame(buf []byte, off int64) (rec Record, next int64, ok bool) {
	payload, next, ok := frameAt(buf, off)
	if !ok || json.Unmarshal(payload, &rec) != nil {
		return rec, off, false
	}
	return rec, next, true
}

//! A hand-rolled stable binary codec for measurement rows.
//!
//! The run journal and result cache in `odb-experiments` persist
//! [`Measurement`]s as bytes and must read them back **bit-exactly**: a
//! resumed sweep is proven byte-identical to an uninterrupted one, so a
//! float that round-trips through decimal formatting (as CSV does) is
//! not good enough. This module is the one home of that byte format:
//! little-endian fixed-width integers, [`f64::to_bits`] for floats
//! (exact round trip, every NaN payload included), and length-prefixed
//! UTF-8 strings — no self-describing envelope, no varints, no
//! reflection. The workspace has no serialization framework, so the
//! codec is written by hand and pinned by round-trip tests.
//!
//! Framing, checksums and record tags are the *caller's* concern (see
//! `odb-experiments`' `journal` module); this module only turns values
//! into bytes and back, and computes the CRC callers frame with.

use crate::error::Error;
use crate::metrics::{IoPerTxn, Measurement, SpaceCounts};

/// Component name used for decode errors.
const COMPONENT: &str = "core::codec";

/// Accumulates encoded values into a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Reads values back out of a byte buffer written by [`ByteWriter`].
///
/// Every accessor returns a typed [`Error::CorruptState`] on underflow
/// or malformed content rather than panicking: the bytes come from disk
/// and may be arbitrary garbage after a crash.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(Error::corrupt(
                COMPONENT,
                format!(
                    "truncated value: wanted {n} bytes at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ),
            ));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow.
    pub fn get_u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow.
    pub fn get_u32(&mut self) -> Result<u32, Error> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow.
    pub fn get_u64(&mut self) -> Result<u64, Error> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow.
    pub fn get_f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool written by [`ByteWriter::put_bool`].
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow or a byte that is neither
    /// 0 nor 1.
    pub fn get_bool(&mut self) -> Result<bool, Error> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::corrupt(
                COMPONENT,
                format!("invalid bool byte {other:#04x}"),
            )),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, Error> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| Error::corrupt(COMPONENT, format!("invalid UTF-8 string: {e}")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the buffer was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] when trailing bytes remain — a record
    /// longer than its decoder expects means the format drifted.
    pub fn finish(&self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::corrupt(
                COMPONENT,
                format!("{} trailing bytes after a complete value", self.remaining()),
            ))
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum the run journal frames its
/// records with.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE[idx];
    }
    !crc
}

impl SpaceCounts {
    /// Encodes every counter, in declaration order.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.instructions);
        w.put_u64(self.cycles);
        w.put_u64(self.l3_misses);
        w.put_u64(self.l2_misses);
        w.put_u64(self.tc_misses);
        w.put_u64(self.tlb_misses);
        w.put_u64(self.branch_mispredictions);
    }

    /// Decodes counts written by [`SpaceCounts::encode_into`].
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, Error> {
        Ok(SpaceCounts {
            instructions: r.get_u64()?,
            cycles: r.get_u64()?,
            l3_misses: r.get_u64()?,
            l2_misses: r.get_u64()?,
            tc_misses: r.get_u64()?,
            tlb_misses: r.get_u64()?,
            branch_mispredictions: r.get_u64()?,
        })
    }
}

impl Measurement {
    /// Encodes the full measurement row, bit-exactly.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.warehouses);
        w.put_u32(self.clients);
        w.put_u32(self.processors);
        w.put_f64(self.elapsed_seconds);
        w.put_u64(self.transactions);
        self.user.encode_into(w);
        self.os.encode_into(w);
        w.put_f64(self.cpu_utilization);
        w.put_f64(self.os_busy_fraction);
        w.put_f64(self.io_per_txn.read_kb);
        w.put_f64(self.io_per_txn.log_write_kb);
        w.put_f64(self.io_per_txn.page_write_kb);
        w.put_f64(self.disk_reads_per_txn);
        w.put_f64(self.context_switches_per_txn);
        w.put_f64(self.bus_utilization);
        w.put_f64(self.bus_transaction_cycles);
    }

    /// Decodes a row written by [`Measurement::encode_into`].
    ///
    /// # Errors
    ///
    /// [`Error::CorruptState`] on underflow.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, Error> {
        Ok(Measurement {
            warehouses: r.get_u32()?,
            clients: r.get_u32()?,
            processors: r.get_u32()?,
            elapsed_seconds: r.get_f64()?,
            transactions: r.get_u64()?,
            user: SpaceCounts::decode_from(r)?,
            os: SpaceCounts::decode_from(r)?,
            cpu_utilization: r.get_f64()?,
            os_busy_fraction: r.get_f64()?,
            io_per_txn: IoPerTxn {
                read_kb: r.get_f64()?,
                log_write_kb: r.get_f64()?,
                page_write_kb: r.get_f64()?,
            },
            disk_reads_per_txn: r.get_f64()?,
            context_switches_per_txn: r.get_f64()?,
            bus_utilization: r.get_f64()?,
            bus_transaction_cycles: r.get_f64()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_measurement() -> Measurement {
        Measurement {
            warehouses: 100,
            clients: 48,
            processors: 4,
            // Deliberately awkward floats: exact round-tripping is the
            // whole point of the bit-pattern encoding.
            elapsed_seconds: 6.000000000000001,
            transactions: 7_777,
            user: SpaceCounts {
                instructions: 8_000_000_001,
                cycles: 30_000_000_003,
                l3_misses: 60_000_007,
                l2_misses: 170_000_011,
                tc_misses: 80_000_013,
                tlb_misses: 25_000_017,
                branch_mispredictions: 32_000_019,
            },
            os: SpaceCounts {
                instructions: 900_000_001,
                cycles: 5_500_000_007,
                l3_misses: 9_000_011,
                l2_misses: 20_000_013,
                tc_misses: 8_000_017,
                tlb_misses: 2_000_019,
                branch_mispredictions: 4_500_023,
            },
            cpu_utilization: 0.930000000000001,
            os_busy_fraction: 0.1 + 0.2, // 0.30000000000000004
            io_per_txn: IoPerTxn {
                read_kb: 8.7,
                log_write_kb: 5.3,
                page_write_kb: 6.9,
            },
            disk_reads_per_txn: 1.09,
            context_switches_per_txn: 2.3,
            bus_utilization: 0.415,
            bus_transaction_cycles: 139.7,
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_str("sweep point (W=800, P=4)");
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        // -0.0 and NaN survive bit-exactly (== would lie here).
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "sweep point (W=800, P=4)");
        assert_eq!(r.get_str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn underflow_and_garbage_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32(),
            Err(Error::CorruptState { component: "core::codec", .. })
        ));
        // A bool byte outside {0, 1} is rejected, not coerced.
        let mut r = ByteReader::new(&[7]);
        assert!(r.get_bool().is_err());
        // A string length prefix pointing past the end is rejected.
        let mut w = ByteWriter::new();
        w.put_u32(1_000);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_str().is_err());
        // Invalid UTF-8 is rejected.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_str().is_err());
        // Trailing bytes fail the exact-consumption check.
        let r = ByteReader::new(&[0]);
        assert!(r.finish().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Sensitivity: one flipped bit changes the checksum.
        assert_ne!(crc32(b"journal"), crc32(b"jou\x72nal\x00"));
    }

    #[test]
    fn measurement_round_trips_bit_exactly() {
        let m = sample_measurement();
        let mut w = ByteWriter::new();
        m.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = Measurement::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(m, back);
        // Bit-level identity for the floats, not just PartialEq.
        assert_eq!(
            m.elapsed_seconds.to_bits(),
            back.elapsed_seconds.to_bits()
        );
        assert_eq!(
            m.os_busy_fraction.to_bits(),
            back.os_busy_fraction.to_bits()
        );
        // Truncated encodings are typed errors, never panics.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(Measurement::decode_from(&mut r).is_err(), "cut at {cut}");
        }
    }
}

//! The sealed segment: an append-only log of records that never change
//! again.
//!
//! A job that reached a terminal state has a fixed durable form, so a
//! checkpoint writes it here once instead of re-serializing it into
//! every later snapshot. The segment reuses the WAL's checksummed frame
//! format, numbered from 1 on its own: opening it scans for the longest
//! intact prefix and truncates a torn tail, exactly like
//! [`crate::Journal::open`]. One [`SealedSegment::append`] writes a whole
//! batch and makes it durable with one sync.

use std::io;

use crate::storage::Storage;
use crate::wal::{encode_frame, scan_frames};

/// An append-only sealed segment over a [`Storage`] device.
pub struct SealedSegment {
    storage: Box<dyn Storage>,
    /// `(valid byte length, next frame seq)` of the intact prefix, once
    /// the device has been scanned.
    tail: Option<(u64, u64)>,
}

impl std::fmt::Debug for SealedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedSegment").field("tail", &self.tail).finish_non_exhaustive()
    }
}

impl SealedSegment {
    /// A segment over `storage`; nothing is read until first use.
    pub fn new(storage: Box<dyn Storage>) -> SealedSegment {
        SealedSegment { storage, tail: None }
    }

    /// Every intact sealed payload, in seal order. A torn tail (a crash
    /// inside a seal's sync) is truncated away.
    ///
    /// # Errors
    ///
    /// Any I/O error reading or truncating the device.
    pub fn load(&mut self) -> io::Result<Vec<Vec<u8>>> {
        let bytes = self.storage.read_all()?;
        let (records, valid_len) = scan_frames(&bytes);
        if valid_len < bytes.len() {
            self.storage.truncate(valid_len as u64)?;
        }
        let next_seq = records.last().map_or(1, |r| r.seq + 1);
        self.tail = Some((valid_len as u64, next_seq));
        Ok(records.into_iter().map(|r| r.payload).collect())
    }

    /// Appends `payloads` as one batch and makes it durable with one
    /// sync. On failure the device is cut back to its last intact
    /// length, so a later batch never lands behind half a failed one.
    ///
    /// # Errors
    ///
    /// Any I/O error writing, syncing or (first use) scanning the device.
    pub fn append(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        if payloads.is_empty() {
            return Ok(());
        }
        let (len, next_seq) = match self.tail {
            Some(tail) => tail,
            None => {
                self.load()?;
                self.tail.expect("load records the tail")
            }
        };
        let mut batch = Vec::new();
        for (seq, payload) in (next_seq..).zip(payloads) {
            encode_frame(&mut batch, seq, payload);
        }
        let written = self.storage.append(&batch).and_then(|()| self.storage.sync());
        match written {
            Ok(()) => {
                self.tail = Some((len + batch.len() as u64, next_seq + payloads.len() as u64));
                Ok(())
            }
            Err(e) => {
                // Unknown tail until the cut succeeds: rescan next time.
                self.tail = None;
                let _ = self.storage.truncate(len);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    #[test]
    fn batches_append_and_reload_in_order() {
        let device = MemStorage::new();
        let mut segment = SealedSegment::new(Box::new(device.clone()));
        assert!(segment.load().unwrap().is_empty());
        segment.append(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        segment.append(&[]).unwrap();
        segment.append(&[b"c".to_vec()]).unwrap();

        // A fresh handle (a restart) scans lazily on its first append.
        let mut reopened = SealedSegment::new(Box::new(device.clone()));
        reopened.append(&[b"d".to_vec()]).unwrap();
        let mut again = SealedSegment::new(Box::new(device));
        assert_eq!(
            again.load().unwrap(),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn torn_tail_is_cut_and_sealing_continues() {
        let device = MemStorage::new();
        let mut segment = SealedSegment::new(Box::new(device.clone()));
        segment.append(&[b"kept".to_vec()]).unwrap();
        segment.append(&[b"torn-away".to_vec()]).unwrap();
        let full = device.contents();
        let torn = MemStorage::from_bytes(full[..full.len() - 3].to_vec());

        let mut reopened = SealedSegment::new(Box::new(torn.clone()));
        assert_eq!(reopened.load().unwrap(), vec![b"kept".to_vec()]);
        reopened.append(&[b"next".to_vec()]).unwrap();
        let mut again = SealedSegment::new(Box::new(torn));
        assert_eq!(again.load().unwrap(), vec![b"kept".to_vec(), b"next".to_vec()]);
    }
}

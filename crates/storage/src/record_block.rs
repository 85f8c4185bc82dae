//! A run of records packed into one buffer.
//!
//! A verified answer is a run of records that travels from the service
//! provider's heap pages, through the wire codec, to the client's hash fold.
//! [`RecordBlock`] carries that run as one contiguous byte buffer plus the
//! end offset of every record, so each layer copies the bytes at most once
//! and no layer allocates per record: a block costs two allocations however
//! many records it holds.
//!
//! Honest answers hold records of one published length, but a block takes
//! any lengths: a tampering service provider, a test or a caller building a
//! block by hand may push a record of another length, and the client must
//! see that record as it was sent to reject it as
//! `SaeVerifyError::WrongRecordLength`.

/// Records packed back to back in one buffer, in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordBlock {
    /// Every record's bytes, back to back.
    bytes: Vec<u8>,
    /// `ends[i]` is the offset in `bytes` one past record `i`.
    ends: Vec<usize>,
}

impl RecordBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty block with room for `records` records of `bytes` bytes in
    /// total.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        RecordBlock {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(records),
        }
    }

    /// Takes `bytes` as `bytes.len() / record_len` records of `record_len`
    /// bytes each, without copying them. `None` when `bytes` is not a whole
    /// number of such records, or when `record_len` is 0 and `bytes` is not
    /// empty.
    pub fn from_uniform(bytes: Vec<u8>, record_len: usize) -> Option<Self> {
        if bytes.is_empty() {
            return Some(RecordBlock::new());
        }
        if record_len == 0 || !bytes.len().is_multiple_of(record_len) {
            return None;
        }
        let ends = (1..=bytes.len() / record_len)
            .map(|i| i * record_len)
            .collect();
        Some(RecordBlock { bytes, ends })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the block holds no record.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every record's bytes, back to back: exactly what the wire carries.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The end offset of every record in [`RecordBlock::as_bytes`].
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// The byte range of record `i`.
    fn span(&self, i: usize) -> Option<std::ops::Range<usize>> {
        let end = *self.ends.get(i)?;
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(start..end)
    }

    /// Record `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        self.span(i).map(|span| &self.bytes[span])
    }

    /// Record `i`, mutably, if there is one. Its length cannot change.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut [u8]> {
        self.span(i).map(|span| &mut self.bytes[span])
    }

    /// The first record, if any.
    pub fn first(&self) -> Option<&[u8]> {
        self.get(0)
    }

    /// The records in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bytes: &self.bytes,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: impl AsRef<[u8]>) {
        self.bytes.extend_from_slice(record.as_ref());
        self.ends.push(self.bytes.len());
    }

    /// Appends `run` as `run.len() / record_len` records of `record_len`
    /// bytes each, with one copy of the bytes. A trailing partial record is
    /// not appended; a `record_len` of 0 appends nothing.
    pub fn extend_uniform(&mut self, run: &[u8], record_len: usize) {
        let Some(count) = run.len().checked_div(record_len) else {
            return;
        };
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&run[..count * record_len]);
        self.ends.extend((1..=count).map(|i| base + i * record_len));
    }

    /// Removes and returns the last record.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        let span = self.span(self.len().checked_sub(1)?)?;
        self.ends.pop();
        Some(self.bytes.split_off(span.start))
    }

    /// Copies every record out into its own `Vec`.
    pub fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(<[u8]>::to_vec).collect()
    }
}

impl<R: AsRef<[u8]>> FromIterator<R> for RecordBlock {
    fn from_iter<I: IntoIterator<Item = R>>(records: I) -> Self {
        let mut block = RecordBlock::new();
        block.extend(records);
        block
    }
}

impl<R: AsRef<[u8]>> Extend<R> for RecordBlock {
    fn extend<I: IntoIterator<Item = R>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }
}

impl<'a> IntoIterator for &'a RecordBlock {
    type Item = &'a [u8];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The records of a [`RecordBlock`], in order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    bytes: &'a [u8],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let end = *self.ends.next()?;
        let record = &self.bytes[self.start..end];
        self.start = end;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3], vec![], vec![4], vec![5, 6, 7, 8]]
    }

    #[test]
    fn a_block_holds_records_of_any_length_in_order() {
        let block: RecordBlock = records().into_iter().collect();
        assert_eq!(block.len(), 4);
        assert_eq!(block.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(block.ends(), &[3, 3, 4, 8]);
        assert_eq!(block.iter().collect::<Vec<_>>(), records());
        assert_eq!(block.to_vecs(), records());
        assert_eq!(block.get(3), Some(&[5u8, 6, 7, 8][..]));
        assert_eq!(block.get(4), None);
        assert_eq!(block.first(), Some(&[1u8, 2, 3][..]));
        assert!(RecordBlock::new().is_empty());
        assert_eq!(RecordBlock::new().first(), None);
    }

    #[test]
    fn uniform_blocks_split_at_the_record_length() {
        let block = RecordBlock::from_uniform((0..12).collect(), 4).unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.get(1), Some(&[4u8, 5, 6, 7][..]));
        assert_eq!(RecordBlock::from_uniform(vec![0; 10], 4), None);
        assert_eq!(RecordBlock::from_uniform(vec![0; 1], 0), None);
        assert_eq!(
            RecordBlock::from_uniform(Vec::new(), 0),
            Some(RecordBlock::new())
        );

        let mut extended = RecordBlock::new();
        extended.push([9u8]);
        extended.extend_uniform(&(0..14).collect::<Vec<u8>>(), 4);
        assert_eq!(extended.ends(), &[1, 5, 9, 13]);
        assert_eq!(extended.get(3), Some(&[8u8, 9, 10, 11][..]));
        extended.extend_uniform(&[1, 2, 3], 0);
        assert_eq!(extended.len(), 4);
    }

    #[test]
    fn edits_match_the_same_edits_on_a_vec_of_records() {
        let mut block: RecordBlock = records().into_iter().collect();
        let mut vecs = records();
        assert_eq!(block.pop(), vecs.pop());
        block.push([7u8, 7]);
        vecs.push(vec![7, 7]);
        block.push(vec![1, 1, 1]);
        vecs.push(vec![1, 1, 1]);
        block.get_mut(2).unwrap()[0] ^= 0xFF;
        vecs[2][0] ^= 0xFF;
        assert_eq!(block.to_vecs(), vecs);
        assert_eq!(block, vecs.iter().collect());
        while let Some(record) = vecs.pop() {
            assert_eq!(block.pop(), Some(record));
        }
        assert_eq!(block.pop(), None);
        assert!(block.as_bytes().is_empty());
    }
}

//! The one journal discipline behind campaign journals, their shard
//! sidecars and the serve response journal: a magic line, a
//! `fingerprint <hex>` line, then newline-terminated records. Anything
//! after the last `\n` is the torn tail of a killed write and is dropped.
//! This module is the only code that writes journal files.
//!
//! Journals are **kill-safe**: records are appended with one write on a
//! handle kept open ([`Appender`]), so a kill tears at most the final
//! line; whole-file [`rewrite`]s stage `<path>.tmp` and `rename` it over
//! the journal, so a kill leaves the old bytes or the new ones. They are
//! **not power-loss-safe**: nothing calls `fsync` (DESIGN.md §8.3).

use std::fs::File;
use std::io::{self, Write as _};
use std::iter::Enumerate;
use std::path::{Path, PathBuf};
use std::str::Lines;

/// 64-bit FNV-1a over a canonical configuration description. Not
/// cryptographic — it guards against configuration mix-ups, not
/// adversaries.
pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The two-line journal header: magic line, then the fingerprint.
pub(crate) fn header(magic: &str, fingerprint: u64) -> String {
    format!("{magic}\nfingerprint {fingerprint:016x}\n")
}

/// Why a journal's header was refused; callers map it to their errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeaderError {
    /// The journal holds no complete line at all.
    Empty,
    /// The first line is not the expected magic.
    BadMagic,
    /// The second line is missing or is not `fingerprint <hex>`.
    BadFingerprint,
    /// The journal was written under a different configuration; holds
    /// the fingerprint recorded in the journal.
    Mismatch(u64),
}

/// A journal whose header checked out.
pub(crate) struct Verified<'a> {
    /// The complete body lines after the header, each paired with its
    /// 0-based line index in the file (so line 3 of the file has index 2).
    pub(crate) lines: Enumerate<Lines<'a>>,
    /// `true` when the text ended in a torn (dropped) partial line.
    pub(crate) torn_tail: bool,
}

/// Checks the header of journal `text` against `magic` and `fingerprint`
/// and returns its complete body lines. A torn final line is dropped and
/// reported, never parsed.
pub(crate) fn verify<'a>(
    text: &'a str,
    magic: &str,
    fingerprint: u64,
) -> Result<Verified<'a>, HeaderError> {
    let complete = match text.rfind('\n') {
        Some(last) => text.get(..=last).unwrap_or_default(),
        None => "",
    };
    let mut lines = complete.lines().enumerate();
    match lines.next() {
        None => return Err(HeaderError::Empty),
        Some((_, line)) if line != magic => return Err(HeaderError::BadMagic),
        Some(_) => {}
    }
    let found = lines
        .next()
        .and_then(|(_, l)| l.strip_prefix("fingerprint "))
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .ok_or(HeaderError::BadFingerprint)?;
    if found != fingerprint {
        return Err(HeaderError::Mismatch(found));
    }
    Ok(Verified {
        lines,
        torn_tail: complete.len() < text.len(),
    })
}

/// An open handle on an existing journal that appends records.
pub(crate) struct Appender(File);

impl Appender {
    /// Opens the existing journal at `path` for appending.
    pub(crate) fn open(path: &Path) -> io::Result<Self> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map(Appender)
    }

    /// Appends `text` (whole newline-terminated records) in one write.
    pub(crate) fn append(&mut self, text: &str) -> io::Result<()> {
        self.0.write_all(text.as_bytes())
    }
}

/// Replaces the journal at `path` with `text`: writes `<path>.tmp` in the
/// same directory, then renames it over `path`. On error the journal is
/// left as it was.
pub(crate) fn rewrite(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &str = "test-journal v1";

    #[test]
    fn verify_drops_the_torn_tail_and_numbers_body_lines() {
        let text = format!("{}a\nb\ntor", header(MAGIC, 7));
        let v = verify(&text, MAGIC, 7).unwrap();
        assert!(v.torn_tail);
        let body: Vec<(usize, &str)> = v.lines.collect();
        assert_eq!(body, vec![(2, "a"), (3, "b")]);
        let whole = format!("{}a\n", header(MAGIC, 7));
        assert!(!verify(&whole, MAGIC, 7).unwrap().torn_tail);
    }

    #[test]
    fn verify_classifies_header_errors() {
        let err = |text: &str| verify(text, MAGIC, 7).err();
        assert_eq!(err(""), Some(HeaderError::Empty));
        assert_eq!(err("test-jour"), Some(HeaderError::Empty));
        assert_eq!(err("other\n"), Some(HeaderError::BadMagic));
        assert_eq!(err("test-journal v1\n"), Some(HeaderError::BadFingerprint));
        assert_eq!(
            err("test-journal v1\nfingerprint zz\n"),
            Some(HeaderError::BadFingerprint)
        );
        assert_eq!(err(&header(MAGIC, 8)), Some(HeaderError::Mismatch(8)));
        assert_eq!(err(&header(MAGIC, 7)), None);
    }

    #[test]
    fn rewrite_replaces_and_appender_extends() {
        let dir = std::env::temp_dir().join(format!("dynawave-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.journal");
        rewrite(&path, "one\n").unwrap();
        let mut appender = Appender::open(&path).unwrap();
        appender.append("two\n").unwrap();
        appender.append("three\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\ntwo\nthree\n");
        rewrite(&path, "four\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "four\n");
        assert!(!dir.join("j.journal.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

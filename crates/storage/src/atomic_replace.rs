//! Atomic whole-file replacement: the temp + write + fsync + rename idiom.
//!
//! Both the manifest save and the WAL segment rotation need the same
//! guarantee: after a crash at *any* point, the path holds either the old
//! bytes or the new bytes in full — never a torn mixture, never nothing.
//! POSIX gives exactly that from `rename(2)` over a fully-synced temp file;
//! [`atomic_replace`] is the one shared implementation of the idiom so the
//! two call sites cannot drift apart.

use crate::error::StorageResult;
use std::path::Path;

/// Atomically replaces the file at `path` with `bytes`.
///
/// The new content is written to a sibling temp file (`path` with an
/// extension of `.tmp`), synced to stable storage, and renamed over `path`;
/// the parent directory is then synced (best effort) so the rename itself
/// survives a crash. Any pre-existing file at `path` is untouched until the
/// rename, so a reader can never observe a partial write.
pub fn atomic_replace<P: AsRef<Path>>(path: P, bytes: &[u8]) -> StorageResult<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Directory sync is best effort: some filesystems refuse to open a
    // directory for writing, and the rename is already ordered after the
    // temp file's sync.
    if let Ok(dir) = std::fs::File::open(parent_dir(path)) {
        dir.sync_all()?;
    }
    Ok(())
}

/// The directory whose entry names `path`. A bare file name's parent is
/// `""`, which no `open` accepts, so it resolves to the current directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_a_new_file_when_none_exists() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("fresh.bin");
        atomic_replace(&path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        // The temp file is gone after the rename.
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn replaces_existing_content_in_full() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("swap.bin");
        atomic_replace(&path, &vec![0xAAu8; 8192]).unwrap();
        atomic_replace(&path, b"short").unwrap();
        // The replacement is complete: no tail of the longer old content
        // survives the rename.
        assert_eq!(std::fs::read(&path).unwrap(), b"short");
    }

    #[test]
    fn empty_replacement_truncates() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("trunc.bin");
        atomic_replace(&path, b"old bytes").unwrap();
        atomic_replace(&path, b"").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("manifest")), Path::new("."));
        assert_eq!(parent_dir(Path::new("./manifest")), Path::new("."));
        assert_eq!(parent_dir(Path::new("db/manifest")), Path::new("db"));
        assert_eq!(parent_dir(Path::new("/manifest")), Path::new("/"));
        // The resolved directory is one `File::open` accepts.
        assert!(std::fs::File::open(parent_dir(Path::new("manifest"))).is_ok());
    }

    #[test]
    fn missing_parent_directory_is_an_error() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("no-such-dir").join("x.bin");
        assert!(atomic_replace(&path, b"x").is_err());
    }

    #[test]
    fn leftover_temp_file_from_a_crash_is_overwritten() {
        // A crash between the temp write and the rename leaves `<path>.tmp`
        // behind; the next replacement must simply overwrite it.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        std::fs::write(path.with_extension("tmp"), b"torn garbage").unwrap();
        atomic_replace(&path, b"good").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"good");
        assert!(!path.with_extension("tmp").exists());
    }
}

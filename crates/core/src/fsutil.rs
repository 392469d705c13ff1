//! Durable file replacement.
//!
//! This project studies exactly the fault a plain `write` + `rename`
//! does not survive: after a power cut the rename can be durable while
//! the renamed file's data is not, leaving an empty or torn file under
//! the final name. [`write_atomic`] is the one helper every snapshot
//! and spool file goes through.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

/// Replaces `path` with `bytes` so that a crash or power cut leaves
/// either the old file or the new one, never a torn one: the bytes go
/// to a `.tmp` sibling that is `fsync`ed before it is renamed over
/// `path`, and the parent directory is `fsync`ed after the rename so the
/// rename itself is durable.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// Makes a rename inside `path`'s directory durable.
#[cfg(unix)]
fn sync_parent(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Directory handles cannot be synced portably off Unix; the rename is
/// as durable as the platform makes it.
#[cfg(not(unix))]
fn sync_parent(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_the_file_and_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join(format!("pfault-fsutil-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert!(!path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

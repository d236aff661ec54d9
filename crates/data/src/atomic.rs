//! The workspace's one atomic file writer.
//!
//! Model artifacts, experiment checkpoints, per-cell telemetry and the
//! daemon's state file are all written through [`write_atomic`],
//! so they share one temp-file name and one durability contract.

use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` atomically: the bytes go to `<path>.tmp`
/// (the full file name with `.tmp` appended), then a rename makes them
/// visible under `path`. Missing parent directories are created first.
///
/// **Durability.** The write is atomic against a *process* crash
/// (`kill -9`, panic, OOM kill): readers see either the previous file or
/// the complete new one, never a torn write, and a failed write leaves
/// the previous file intact. It is *not* durable against an OS crash or
/// power loss — nothing is fsynced, so after one the rename may be lost
/// or, on some filesystems, the new file may be empty. Every file
/// written here can be regenerated (a checkpointed cell is re-run, an
/// artifact re-fit), and skipping the fsync keeps per-cell checkpointing
/// and artifact saves cheap.
///
/// On error the temp file is removed when possible.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let result = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        // Best effort: the original error is what the caller needs.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// `<path>.tmp`: the temp file [`write_atomic`] stages through.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = OsString::from(path.as_os_str());
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pnr_atomic_{name}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn creates_parents_overwrites_and_leaves_no_tmp_residue() {
        let dir = temp_dir("residue");
        let path = dir.join("nested").join("model.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(names(path.parent().unwrap()), ["model.json"]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tmp_name_appends_to_the_full_file_name() {
        assert_eq!(
            tmp_path(Path::new("ckpt/fit-00ff.json")),
            PathBuf::from("ckpt/fit-00ff.json.tmp")
        );
        assert_eq!(tmp_path(Path::new("state")), PathBuf::from("state.tmp"));
    }

    #[test]
    fn failed_write_keeps_the_old_file_intact() {
        let dir = temp_dir("fail");
        let path = dir.join("active.state");
        write_atomic(&path, b"old contents").unwrap();
        // A directory squatting on the temp name makes the staging write
        // fail before anything touches the real file.
        fs::create_dir_all(tmp_path(&path)).unwrap();
        assert!(write_atomic(&path, b"new contents").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old contents");
        fs::remove_dir_all(dir).ok();
    }
}

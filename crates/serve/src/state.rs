//! Crash-safe persistence of the daemon's active artifact path.
//!
//! The hot-swap command changes which artifact the daemon serves without
//! restarting it — which means the path on the command line goes stale
//! the moment a swap lands. If the process is then killed ungracefully
//! (`kill -9`, OOM), a restart from the command line would silently
//! resurrect the *old* model. The state file closes that hole: the
//! daemon writes the active artifact path at startup and after every
//! successful swap (through [`pnr_data::write_atomic`], like artifact
//! saves), and on restart a present state file wins over `--model`.
//!
//! The file holds a single line — the artifact path — so it stays
//! trivially inspectable and hand-editable during incident response.

use std::io;
use std::path::{Path, PathBuf};

/// Atomically records `artifact_path` as the active model. Crash-safe:
/// readers see either the previous path or the new one, never a torn
/// write.
pub fn persist_active(state_path: &Path, artifact_path: &Path) -> io::Result<()> {
    pnr_data::write_atomic(
        state_path,
        format!("{}\n", artifact_path.display()).as_bytes(),
    )
}

/// Reads the last persisted artifact path. `Ok(None)` when no state file
/// exists (first start); an unreadable or empty file is an error so a
/// corrupted state file fails loudly instead of silently falling back.
pub fn read_active(state_path: &Path) -> io::Result<Option<PathBuf>> {
    let text = match std::fs::read_to_string(state_path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let line = text.trim();
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("state file {} is empty", state_path.display()),
        ));
    }
    Ok(Some(PathBuf::from(line)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_state(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pnr_state_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("active.state")
    }

    #[test]
    fn round_trips_and_overwrites() {
        let state = temp_state("roundtrip");
        assert_eq!(read_active(&state).unwrap(), None, "no file yet");
        persist_active(&state, Path::new("/models/a.artifact")).unwrap();
        assert_eq!(
            read_active(&state).unwrap(),
            Some(PathBuf::from("/models/a.artifact"))
        );
        persist_active(&state, Path::new("/models/b.artifact")).unwrap();
        assert_eq!(
            read_active(&state).unwrap(),
            Some(PathBuf::from("/models/b.artifact"))
        );
        std::fs::remove_dir_all(state.parent().unwrap()).ok();
    }

    #[test]
    fn empty_state_file_fails_loudly() {
        let state = temp_state("empty");
        std::fs::write(&state, "\n").unwrap();
        assert!(read_active(&state).is_err());
        std::fs::remove_dir_all(state.parent().unwrap()).ok();
    }
}

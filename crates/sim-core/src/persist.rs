//! Crash-safe artifact persistence.
//!
//! Every artifact the pipeline writes — experiment CSVs, the replay
//! benchmark JSON, workload-cache spills, GA checkpoints, the run
//! manifest — goes through [`atomic_write`] / [`atomic_write_with`]:
//! the payload is staged in a sibling temporary file (`<name>.tmp`),
//! flushed and fsynced, then renamed over the destination. A crash at any
//! instant leaves either the old artifact or the new one, never a torn
//! hybrid; at worst an orphaned `.tmp` file remains, which writers ignore
//! and startup pruning removes.
//!
//! Append-only formats whose readers drop a damaged tail (the `sim-serve`
//! session snapshots) grow their files with [`append_at`] instead: the
//! new bytes are written after the existing image and `sync_data`ed, so a
//! crash mid-append leaves the old image plus a torn tail.
//!
//! The module is instrumented with [`sim_fault`] write points (labeled by
//! the destination path), so torn writes, disk-full errors, committed
//! corruption, and kill-mid-write are all injectable deterministically in
//! tests. In default builds the hooks compile to no-ops.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Exit status used when a `sim_fault` `exit` clause simulates a hard
/// kill mid-write; distinctive so kill-and-resume tests can assert the
/// crash was the injected one.
pub const FAULT_EXIT_CODE: i32 = 86;

/// The staging path for `path`: the same file name with `.tmp` appended,
/// in the same directory (so the final rename never crosses filesystems).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: parent directories are
/// created, the payload is staged in [`tmp_path`], fsynced, and renamed
/// into place. On any error the staging file is removed, so failures
/// leave the previous artifact intact and no orphan behind.
///
/// # Errors
///
/// Propagates filesystem errors (including injected ones).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |w| w.write_all(bytes))
}

/// [`atomic_write`] with a streaming producer: `fill` writes the payload
/// into an in-memory buffer, which is then committed atomically. The
/// buffer indirection is what makes injected torn/corrupt faults exact
/// (the fault sees the complete payload), and it keeps `fill` free of
/// partial-write hazards.
///
/// # Errors
///
/// Propagates `fill`'s error or any filesystem error.
pub fn atomic_write_with<F>(path: &Path, fill: F) -> io::Result<()>
where
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    let mut payload: Vec<u8> = Vec::new();
    fill(&mut payload)?;

    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }

    let label = path.to_string_lossy();
    let fault = sim_fault::on_write(&label);
    if fault == sim_fault::WriteFault::Error {
        return Err(io::Error::other(format!(
            "injected write fault: no space left on device ({label})"
        )));
    }

    let tmp = tmp_path(path);
    let result = commit(&tmp, path, payload, fault);
    if result.is_err() {
        // Failures must not leave staging orphans; the previous artifact
        // at `path` is untouched either way.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Stages `payload` at `tmp`, applies any injected fault, and renames it
/// over `path`.
fn commit(
    tmp: &Path,
    path: &Path,
    mut payload: Vec<u8>,
    fault: sim_fault::WriteFault,
) -> io::Result<()> {
    use sim_fault::WriteFault;

    let torn = match fault {
        WriteFault::Torn(keep) => {
            let keep = keep.unwrap_or(payload.len() / 2).min(payload.len());
            payload.truncate(keep);
            true
        }
        WriteFault::Corrupt => {
            // Flip one mid-payload bit but commit successfully: the
            // deterministic stand-in for post-commit corruption, which
            // only a reader-side CRC can catch.
            let mid = payload.len() / 2;
            match payload.get_mut(mid) {
                Some(byte) => *byte ^= 0x40,
                None => payload.push(0x40),
            }
            false
        }
        _ => false,
    };

    {
        let mut file = fs::File::create(tmp)?;
        file.write_all(&payload)?;
        file.sync_all()?;
    }
    if torn {
        // The simulated crash happened mid-write: the staging file holds a
        // truncated payload and the commit never happens. The caller's
        // error path removes the staging file (a real crash would leave it
        // for startup pruning).
        return Err(io::Error::other(format!(
            "injected write fault: torn write ({})",
            path.display()
        )));
    }
    if fault == WriteFault::Exit {
        // Simulated SIGKILL at the worst instant: staged but not renamed.
        eprintln!(
            "sim-fault: exiting mid-write of {} (staged, not committed)",
            path.display()
        );
        std::process::exit(FAULT_EXIT_CODE);
    }
    fs::rename(tmp, path)?;
    sync_dir(path);
    Ok(())
}

/// Durably appends `bytes` to the existing file at `path`, which must be
/// exactly `at` bytes long: the payload is written at offset `at` and
/// `sync_data`ed before returning. A file of any other length (one
/// rewritten or truncated under the caller) fails the append untouched,
/// so an append never lands anywhere but where the caller's last image
/// ended.
///
/// This is the crash-safe write for append-only formats whose readers
/// tolerate a damaged tail: a crash mid-append leaves the old content
/// followed by a prefix of `bytes`, never less than the old content. It
/// carries the same [`sim_fault`] write points as [`atomic_write`]
/// (labeled by `path`): `enospc` fails before any byte moves, `torn`
/// appends a prefix and fails, `corrupt` appends with one byte flipped and
/// succeeds, and `exit` appends a prefix and terminates the process.
///
/// # Errors
///
/// Propagates filesystem errors (including injected ones); a missing file
/// or a length other than `at` is an error.
pub fn append_at(path: &Path, at: u64, bytes: &[u8]) -> io::Result<()> {
    use sim_fault::WriteFault;
    use std::io::{Seek, SeekFrom};

    let label = path.to_string_lossy();
    let fault = sim_fault::on_write(&label);
    if fault == WriteFault::Error {
        return Err(io::Error::other(format!(
            "injected write fault: no space left on device ({label})"
        )));
    }
    let mut file = fs::OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    if len != at {
        return Err(io::Error::other(format!(
            "append to {} expected {at} bytes, found {len}",
            path.display()
        )));
    }
    file.seek(SeekFrom::Start(at))?;
    let keep = match fault {
        WriteFault::Torn(keep) => keep.unwrap_or(bytes.len() / 2).min(bytes.len()),
        WriteFault::Exit => bytes.len() / 2,
        _ => bytes.len(),
    };
    if fault == WriteFault::Corrupt {
        // Committed corruption, as in `commit`: only a reader-side CRC
        // can catch it.
        let mut payload = bytes.to_vec();
        let mid = payload.len() / 2;
        match payload.get_mut(mid) {
            Some(byte) => *byte ^= 0x40,
            None => payload.push(0x40),
        }
        file.write_all(&payload)?;
    } else {
        file.write_all(&bytes[..keep])?;
    }
    file.sync_data()?;
    match fault {
        WriteFault::Torn(_) => Err(io::Error::other(format!(
            "injected write fault: torn append ({})",
            path.display()
        ))),
        WriteFault::Exit => {
            // Simulated SIGKILL mid-append: a prefix of the payload is on
            // disk and the caller never hears back.
            eprintln!(
                "sim-fault: exiting mid-append to {} ({keep} of {} bytes written)",
                path.display(),
                bytes.len()
            );
            std::process::exit(FAULT_EXIT_CODE);
        }
        _ => Ok(()),
    }
}

/// Fsyncs the destination's directory so the rename itself is durable
/// (without this, a power cut can forget the rename while remembering the
/// data). Advisory: filesystems that cannot fsync directories are skipped.
fn sync_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_replaces_atomically() {
        let dir = scratch("basic");
        let path = dir.join("nested/deeper/out.csv");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "no staging orphan");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_producer_error_leaves_old_artifact() {
        let dir = scratch("fill-err");
        let path = dir.join("out.bin");
        atomic_write(&path, b"good").unwrap();
        let err = atomic_write_with(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("producer failed"))
        });
        assert!(err.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"good");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("results/cache/micro-x.wlc")),
            Path::new("results/cache/micro-x.wlc.tmp")
        );
        assert_eq!(tmp_path(Path::new("fig10.csv")), Path::new("fig10.csv.tmp"));
    }

    #[test]
    fn append_at_extends_only_an_image_of_the_expected_length() {
        let dir = scratch("append");
        let path = dir.join("log.bin");
        assert!(append_at(&path, 0, b"x").is_err(), "no file to append to");
        atomic_write(&path, b"head").unwrap();
        append_at(&path, 4, b"+tail").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"head+tail");
        let err = append_at(&path, 4, b"!").unwrap_err();
        assert!(
            err.to_string().contains("expected 4 bytes, found 9"),
            "{err}"
        );
        assert_eq!(fs::read(&path).unwrap(), b"head+tail");
        let _ = fs::remove_dir_all(&dir);
    }

    mod injected {
        use super::*;

        #[test]
        fn append_faults_tear_fail_or_corrupt_the_tail_only() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("append-faults");
            let path = dir.join("seg.log");
            atomic_write(&path, b"head").unwrap();
            sim_fault::with_plan("enospc@seg.log", || {
                let err = append_at(&path, 4, b"12345678").unwrap_err();
                assert!(err.to_string().contains("no space left"), "{err}");
            });
            assert_eq!(fs::read(&path).unwrap(), b"head");
            sim_fault::with_plan("torn@seg.log:keep=3", || {
                let err = append_at(&path, 4, b"12345678").unwrap_err();
                assert!(err.to_string().contains("torn append"), "{err}");
            });
            assert_eq!(fs::read(&path).unwrap(), b"head123");
            sim_fault::with_plan("corrupt@seg.log", || {
                append_at(&path, 7, b"abcd").unwrap();
            });
            assert_eq!(fs::read(&path).unwrap(), b"head123ab\x23d");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn torn_write_preserves_old_artifact_and_cleans_up() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("torn");
            let path = dir.join("table.csv");
            atomic_write(&path, b"old,intact\n").unwrap();
            sim_fault::with_plan("torn@table.csv", || {
                let err = atomic_write(&path, b"new,content,that,tears\n");
                assert!(err.is_err(), "torn write must surface as an error");
            });
            assert_eq!(fs::read(&path).unwrap(), b"old,intact\n");
            assert!(!tmp_path(&path).exists(), "torn staging file removed");
            // The next write (fault spent) succeeds normally.
            atomic_write(&path, b"new\n").unwrap();
            assert_eq!(fs::read(&path).unwrap(), b"new\n");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn enospc_fails_without_touching_anything() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("enospc");
            let path = dir.join("data.json");
            atomic_write(&path, b"{}").unwrap();
            sim_fault::with_plan("enospc@data.json", || {
                let err = atomic_write(&path, b"{\"big\":true}").unwrap_err();
                assert!(err.to_string().contains("no space left"), "{err}");
            });
            assert_eq!(fs::read(&path).unwrap(), b"{}");
            assert!(!tmp_path(&path).exists());
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn corrupt_commits_a_damaged_payload() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("corrupt");
            let path = dir.join("blob.bin");
            let payload = vec![0u8; 64];
            sim_fault::with_plan("corrupt@blob.bin", || {
                atomic_write(&path, &payload).unwrap();
            });
            let written = fs::read(&path).unwrap();
            assert_eq!(written.len(), 64);
            assert_ne!(written, payload, "exactly the committed-corruption case");
            assert_eq!(written.iter().filter(|&&b| b != 0).count(), 1);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

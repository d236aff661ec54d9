//! The panic boundary: [`run_caught`] runs a closure and turns a panic
//! inside it into a typed message.
//!
//! Three boundaries use it: the daemon's worker pool (`pnr-serve`), the
//! experiment runner's `run_jobs` (`pnr-experiments`) and
//! [`refit_window`](crate::windowed::refit_window). Each turns the message
//! into its own typed outcome.
//!
//! The message comes from a process-wide panic hook, installed on the
//! first call and chained to the hook that was installed before it. A
//! thread-local `ACTIVE` flag marks threads running inside a boundary.
//! For those threads the hook records the payload and the source
//! location and prints nothing, because the panic is expected to be
//! caught. It forwards panics on every other thread to the previous hook
//! unchanged.

use std::cell::{Cell, RefCell};
use std::panic::{AssertUnwindSafe, PanicHookInfo};
use std::sync::{Once, OnceLock};

thread_local! {
    /// True while the current thread runs a closure under [`run_caught`].
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The formatted message of the most recent captured panic.
    static CAPTURED: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The hook that was installed before ours; panics on threads that are
/// not inside a boundary are forwarded to it unchanged.
type PanicHook = Box<dyn for<'a> Fn(&PanicHookInfo<'a>) + Send + Sync>;
static PREV_HOOK: OnceLock<PanicHook> = OnceLock::new();

fn install_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let _ = PREV_HOOK.set(std::panic::take_hook());
        std::panic::set_hook(Box::new(|info| {
            if ACTIVE.with(Cell::get) {
                let msg = payload_str(info.payload());
                let full = match info.location() {
                    Some(loc) => format!("{msg} at {}:{}", loc.file(), loc.line()),
                    None => msg,
                };
                CAPTURED.with(|c| *c.borrow_mut() = Some(full));
            } else if let Some(prev) = PREV_HOOK.get() {
                prev(info);
            }
        }));
    });
}

fn payload_str(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)`: the panic's payload
/// (`"non-string panic payload"` when it is neither a `&str` nor a
/// `String`) followed by ` at <file>:<line>`. Nothing is printed for the
/// captured panic. Boundaries nest: leaving one restores the enclosing
/// boundary's `ACTIVE` flag, so a later panic in the outer closure is
/// still captured with its location.
pub fn run_caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_hook();
    let outer = ACTIVE.with(|a| a.replace(true));
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    ACTIVE.with(|a| a.set(outer));
    result.map_err(|payload| {
        CAPTURED
            .with(|c| c.borrow_mut().take())
            .unwrap_or_else(|| payload_str(payload.as_ref()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `msg` is `<payload> at <this file>:<line>` for some line number.
    fn located(msg: &str, payload: &str) -> bool {
        let Some(rest) = msg.strip_prefix(payload) else {
            return false;
        };
        let Some((file, line)) = rest
            .strip_prefix(" at ")
            .and_then(|loc| loc.rsplit_once(':'))
        else {
            return false;
        };
        file.ends_with("panic_capture.rs") && line.parse::<u32>().is_ok()
    }

    #[test]
    fn ok_passes_through() {
        assert_eq!(run_caught(|| 41 + 1), Ok(42));
        assert_eq!(run_caught(|| "value".to_string()), Ok("value".to_string()));
    }

    #[test]
    fn str_string_and_other_payloads_become_located_messages() {
        let msg = run_caught::<()>(|| panic!("static str")).unwrap_err();
        assert!(located(&msg, "static str"), "{msg}");
        let msg = run_caught::<()>(|| panic!("formatted {}", 7)).unwrap_err();
        assert!(located(&msg, "formatted 7"), "{msg}");
        let msg = run_caught::<()>(|| std::panic::panic_any(7u8)).unwrap_err();
        assert!(located(&msg, "non-string panic payload"), "{msg}");
    }

    #[test]
    fn a_boundary_nested_in_another_leaves_the_outer_one_capturing() {
        let outer = run_caught::<()>(|| {
            let inner = run_caught::<()>(|| panic!("inner")).unwrap_err();
            assert!(located(&inner, "inner"), "{inner}");
            panic!("outer")
        })
        .unwrap_err();
        assert!(located(&outer, "outer"), "{outer}");
        assert!(
            !ACTIVE.with(Cell::get),
            "leaving the outermost boundary clears the flag"
        );
    }
}

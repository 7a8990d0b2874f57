//! A minimal leveled logging facade replacing ad-hoc `eprintln!`
//! progress lines in the CLI and bench binaries.
//!
//! Messages at or below the current [`Level`] go to stderr (keeping
//! stdout clean for machine-readable command output). Tests can
//! install a capture sink with [`capture_start`] / [`capture_take`].

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or user-visible failures.
    Error = 0,
    /// Suspicious conditions that do not stop the run.
    Warn = 1,
    /// Progress reporting (the default).
    Info = 2,
    /// Verbose diagnostics (`-v`).
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// Lower-case name (`"error"`, `"warn"`, `"info"`, `"debug"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Error returned when parsing an unknown level name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelError(pub String);

impl fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown log level '{}' (expected error|warn|info|debug)",
            self.0
        )
    }
}

impl std::str::FromStr for Level {
    type Err = ParseLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" | "verbose" => Ok(Level::Debug),
            other => Err(ParseLevelError(other.to_owned())),
        }
    }
}

/// Current max level; messages above it are discarded. Default Info.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Optional capture sink for tests.
static CAPTURE: Mutex<Option<Vec<String>>> = Mutex::new(None);

/// Sets the maximum level that will be emitted.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current maximum emitted level.
#[must_use]
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Starts capturing log lines into memory instead of stderr (tests).
pub fn capture_start() {
    *CAPTURE.lock().expect("obs log capture poisoned") = Some(Vec::new());
}

/// Stops capturing and returns the captured lines.
#[must_use]
pub fn capture_take() -> Vec<String> {
    CAPTURE
        .lock()
        .expect("obs log capture poisoned")
        .take()
        .unwrap_or_default()
}

/// Emits a message at `msg_level` if it passes the current filter.
/// Prefer the [`obs_error!`](crate::obs_error) /
/// [`obs_warn!`](crate::obs_warn) / [`obs_info!`](crate::obs_info) /
/// [`obs_debug!`](crate::obs_debug) macros.
pub fn log_at(msg_level: Level, args: fmt::Arguments<'_>) {
    if msg_level > level() {
        return;
    }
    let line = if msg_level <= Level::Warn {
        format!("[{}] {args}", msg_level.name())
    } else {
        format!("{args}")
    };
    let mut capture = CAPTURE.lock().expect("obs log capture poisoned");
    if let Some(lines) = capture.as_mut() {
        lines.push(line);
    } else {
        drop(capture);
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
    }
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! obs_error {
    ($($t:tt)*) => { $crate::log_at($crate::Level::Error, format_args!($($t)*)) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! obs_warn {
    ($($t:tt)*) => { $crate::log_at($crate::Level::Warn, format_args!($($t)*)) };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! obs_info {
    ($($t:tt)*) => { $crate::log_at($crate::Level::Info, format_args!($($t)*)) };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! obs_debug {
    ($($t:tt)*) => { $crate::log_at($crate::Level::Debug, format_args!($($t)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn level_parse_and_name_round_trip() {
        for lvl in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::from_str(lvl.name()).unwrap(), lvl);
        }
        assert_eq!(Level::from_str("WARNING").unwrap(), Level::Warn);
        assert!(Level::from_str("loud").is_err());
    }

    #[test]
    fn filtering_and_capture() {
        // Single test covering the capture sink end to end: capture is
        // global state, so exercising it from one test avoids
        // interleaving with parallel test threads.
        capture_start();
        set_level(Level::Warn);
        obs_error!("e{}", 1);
        obs_warn!("w");
        obs_info!("dropped");
        obs_debug!("dropped");
        set_level(Level::Debug);
        obs_debug!("kept");
        let lines = capture_take();
        set_level(Level::Info);
        assert_eq!(lines, vec!["[error] e1", "[warn] w", "kept"]);
    }
}

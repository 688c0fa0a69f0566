//! Where and when a results file was produced.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Where this binary's source was when it was built: the repository the
/// revision is asked of, whatever directory the benchmark is started from.
const SOURCE_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from seconds since the epoch (civil-from-days,
/// Howard Hinnant's algorithm).
pub fn utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Git revision (`unknown` outside a repository), UTC time, host CPUs and
/// compiler. Spawns `git` and `rustc` and waits for both.
pub fn stamp() -> Json {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "git_rev",
            Json::str(
                command_line("git", &["-C", SOURCE_DIR, "rev-parse", "HEAD"])
                    .unwrap_or_else(unknown),
            ),
        ),
        (
            "git_dirty",
            command_line("git", &["-C", SOURCE_DIR, "status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        ("utc", Json::str(utc(now))),
        (
            "host_cpus",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "harness",
            Json::str(concat!("aib-e2e ", env!("CARGO_PKG_VERSION"))),
        ),
        (
            "locks_and_rng",
            Json::str("offline stand-ins e2e/stubs/{parking_lot,rand}, not the published crates"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::utc;

    #[test]
    fn civil_dates() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_790_461_871), "2026-09-26T22:31:11Z");
    }
}

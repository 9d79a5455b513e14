//! Facts about the host and the checkout that every record carries: the
//! manifest line and the refusal of ambient knobs.

use std::time::{SystemTime, UNIX_EPOCH};

/// Prefix of the simulator's environment knobs. Any of them (shards,
/// sentinel, decode cache, trace capture, …) silently changes what is
/// measured, so the benchmark refuses to start when one is set.
const KNOB_PREFIX: &str = "CMPSIM_";

/// The names of the `CMPSIM_*` variables set in `vars`.
pub fn ambient_knobs(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    set.sort();
    set
}

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The current time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    utc(secs)
}

/// Formats seconds since the Unix epoch (civil-from-days, proleptic
/// Gregorian calendar).
pub fn utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_utc_dates() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_790_000_000), "2026-09-21T14:13:20Z");
    }

    #[test]
    fn finds_only_cmpsim_knobs() {
        let vars = [("PATH", "/bin"), ("CMPSIM_SHARDS", "2"), ("CMPSIM_X", "")]
            .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(ambient_knobs(vars), ["CMPSIM_SHARDS", "CMPSIM_X"]);
    }
}

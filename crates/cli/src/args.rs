//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed `--key value` pairs plus boolean switches.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses an argument list. Flags with values are `--key value`; bare
    /// flags become switches.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked");
                    args.values.insert(key.to_owned(), value.clone());
                }
                _ => args.switches.push(key.to_owned()),
            }
        }
        Ok(args)
    }

    /// A string value, or `default` when absent.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map_or(default, String::as_str)
    }

    /// A string value, or `None` when absent.
    pub fn str_opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A parsed numeric value, or `default` when absent. A key given
    /// as a bare switch (`--budget --seed 1`) is an error, not absent.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None if self.has(key) => Err(format!("--{key} needs a value")),
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("--{key} got `{raw}`, expected a number")),
        }
    }

    /// Whether a bare switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(&argv(&["--devices", "50", "--json", "--algorithm", "greedy-regret"]))
            .unwrap();
        assert_eq!(a.num_or("devices", 0usize).unwrap(), 50);
        assert_eq!(a.str_or("algorithm", "x"), "greedy-regret");
        assert_eq!(a.str_opt("algorithm"), Some("greedy-regret"));
        assert_eq!(a.str_opt("trace"), None);
        assert!(a.has("json"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        assert_eq!(a.str_or("family", "grid"), "grid");
    }

    #[test]
    fn rejects_positional_and_bad_numbers() {
        assert!(Args::parse(&argv(&["positional"])).is_err());
        let a = Args::parse(&argv(&["--devices", "abc"])).unwrap();
        assert!(a.num_or("devices", 0usize).is_err());
        // A numeric flag followed by another flag has no value: refuse it
        // rather than fall back to the default.
        for argv_ in [&["--budget", "--stop-after", "20"][..], &["--stop-after", "20", "--budget"]]
        {
            let a = Args::parse(&argv(argv_)).unwrap();
            assert_eq!(a.num_or("budget", 4usize), Err("--budget needs a value".to_owned()));
            assert_eq!(a.num_or("stop-after", 0u64), Ok(20));
        }
    }
}

//! Tiny flag parser (`--name value` pairs plus positionals); no external
//! dependencies, fully tested.

use std::collections::HashMap;

/// Parsed command line: flag map plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// Errors from parsing or typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--flag` appeared without a value.
    MissingValue(String),
    /// A required flag was absent.
    Required(String),
    /// A value failed to parse.
    Invalid(String, String),
    /// A flag appeared twice.
    Duplicate(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::Required(flag) => write!(f, "--{flag} is required"),
            ArgError::Invalid(flag, v) => write!(f, "--{flag}: cannot parse {v:?}"),
            ArgError::Duplicate(flag) => write!(f, "--{flag} given twice"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--name value` pairs; everything else is positional.
    /// (The CLI dispatcher uses [`Args::parse_bools`]; this is the
    /// no-boolean-flags entry point of the tests.)
    #[cfg(test)]
    pub fn parse(argv: &[String]) -> Result<Self, ArgError> {
        Self::parse_bools(argv, &[])
    }

    /// Parses `--name value` pairs, except that the `bool_flags` take
    /// no value (`--verbose`) and parse as `"true"`; everything else is
    /// positional.
    pub fn parse_bools(argv: &[String], bool_flags: &[&str]) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let (value, step) = if bool_flags.contains(&name) {
                    ("true".to_owned(), 1)
                } else {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| ArgError::MissingValue(name.to_owned()))?;
                    (value.clone(), 2)
                };
                if out.flags.insert(name.to_owned(), value).is_some() {
                    return Err(ArgError::Duplicate(name.to_owned()));
                }
                i += step;
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ArgError::Required(name.to_owned()))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// An optional typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::Invalid(name.to_owned(), v.clone())),
        }
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The names of the flags given, without their `--`.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&argv(&["--mss", "3", "QUERY", "--index", "./idx"])).unwrap();
        assert_eq!(a.required("mss").unwrap(), "3");
        assert_eq!(a.required("index").unwrap(), "./idx");
        assert_eq!(a.positional(), &["QUERY".to_owned()]);
    }

    #[test]
    fn typed_access() {
        let a = Args::parse(&argv(&["--sentences", "500"])).unwrap();
        assert_eq!(a.get_or("sentences", 10usize).unwrap(), 500);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
        assert!(matches!(
            a.get_or::<usize>("sentences", 0).map(|_| ()),
            Ok(())
        ));
    }

    #[test]
    fn errors() {
        assert_eq!(
            Args::parse(&argv(&["--mss"])).unwrap_err(),
            ArgError::MissingValue("mss".into())
        );
        assert_eq!(
            Args::parse(&argv(&["--a", "1", "--a", "2"])).unwrap_err(),
            ArgError::Duplicate("a".into())
        );
        let a = Args::parse(&argv(&["--n", "abc"])).unwrap();
        assert!(matches!(
            a.get_or::<u32>("n", 0),
            Err(ArgError::Invalid(_, _))
        ));
        assert!(matches!(a.required("x"), Err(ArgError::Required(_))));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a =
            Args::parse_bools(&argv(&["--verbose", "QUERY", "--show", "3"]), &["verbose"]).unwrap();
        assert!(a.get_or("verbose", false).unwrap());
        assert_eq!(a.get_or("show", 0usize).unwrap(), 3);
        assert_eq!(a.positional(), &["QUERY".to_owned()]);
        // Trailing boolean flag is fine.
        let a = Args::parse_bools(&argv(&["Q", "--verbose"]), &["verbose"]).unwrap();
        assert!(a.get_or("verbose", false).unwrap());
        // Non-listed flags still require a value.
        assert!(matches!(
            Args::parse_bools(&argv(&["--show"]), &["verbose"]),
            Err(ArgError::MissingValue(_))
        ));
    }

    #[test]
    fn display_messages() {
        assert!(ArgError::Required("idx".into())
            .to_string()
            .contains("--idx"));
        assert!(ArgError::Invalid("n".into(), "x".into())
            .to_string()
            .contains("parse"));
    }
}

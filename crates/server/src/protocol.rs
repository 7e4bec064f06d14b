//! The wire protocol: line-delimited requests, dot-terminated replies.
//!
//! Every request is one line, `VERB [arguments…]\n`. Every reply is a
//! status line (`OK …` or `ERR …`), zero or more body lines, and a
//! terminator line containing a single `.` — the SMTP/NNTP framing that
//! lets a reply carry arbitrary multi-line relation output without
//! length prefixes. Body lines that *start* with a dot are sent with the
//! dot doubled (dot-stuffing); receivers strip it back off.
//!
//! Parameter and row values are tab-separated and typed by shape:
//! `NULL`, `true`/`false`, integers, floats, `yyyy/mm/dd` dates, and
//! `'quoted strings'` (with `''` escaping the quote, exactly like the
//! SQL lexer); anything else is taken as a bare string. This mirrors
//! how [`pref_relation::Value`] displays itself, so values round-trip.
//!
//! One frame kind is *asynchronous*: a connection that has issued
//! `WATCH` receives `PUSH <id> …` frames — same dot-stuffed framing as
//! a reply, one `+row`/`-row` body line per changed result row —
//! whenever any session's mutation changes the watched statement's
//! answer. A push can arrive between a request and its reply, so
//! receivers dispatch on the status-line prefix: `PUSH` frames are
//! notifications, everything else is the pending reply.

use pref_relation::{Date, Value};

/// The terminator line closing every reply.
pub const END: &str = ".";

/// The status-line prefix marking an asynchronous push frame.
pub const PUSH: &str = "PUSH";

/// Render one watch notification for the wire: a `PUSH <id>` status
/// line, one body line per changed result row (`+` appeared, `-`
/// vanished), dot-stuffed and dot-terminated exactly like a reply —
/// receivers reuse their reply framing and dispatch on the prefix.
pub fn push_frame(watch_id: u64, deltas: &[String]) -> String {
    Reply {
        status: format!("{PUSH} {watch_id} {} delta(s)", deltas.len()),
        body: deltas.to_vec(),
    }
    .frame()
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `EXEC <sql>` — parse and run a statement ad hoc.
    Exec(String),
    /// `PREPARE <name> <sql>` — compile a session-scoped statement.
    Prepare(String, String),
    /// `BIND <name> [values…]` — stage parameter values for `name`.
    Bind(String, Vec<Value>),
    /// `EXECUTE <name> [values…]` — run a prepared statement; inline
    /// values override (and replace) any staged binding.
    Execute(String, Option<Vec<Value>>),
    /// `EXPLAIN` — how the session's *last* BMO stage resolved
    /// (backend, cache tier).
    Explain,
    /// `APPEND <table> <values…>` — append one row in place.
    Append(String, Vec<Value>),
    /// `DELETE FROM <table> [WHERE <hard>]` — delete matching rows in
    /// place (the whole line is the SQL statement).
    Delete(String),
    /// `WATCH <sql>` — run the statement now, reply with its result,
    /// then stream asynchronous `PUSH` frames whenever a mutation
    /// changes that result.
    Watch(String),
    /// `UNWATCH <id>` — cancel a watch this session registered.
    Unwatch(u64),
    /// `STATS` — shared engine cache counters, lock-free.
    Stats,
    /// `TABLES` — registered table names.
    Tables,
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — end the session.
    Quit,
}

impl Command {
    /// Parse one request line. Errors are protocol-level (unknown verb,
    /// missing argument, malformed value) and become `ERR` replies.
    pub fn parse(line: &str) -> Result<Command, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        let require = |what: &str| -> Result<&str, String> {
            if rest.is_empty() {
                Err(format!("{} requires {what}", verb.to_ascii_uppercase()))
            } else {
                Ok(rest)
            }
        };
        match verb.to_ascii_uppercase().as_str() {
            "EXEC" => Ok(Command::Exec(require("a statement")?.to_string())),
            "PREPARE" => {
                let rest = require("a name and a statement")?;
                let (name, sql) = rest
                    .split_once(char::is_whitespace)
                    .ok_or("PREPARE requires a name and a statement")?;
                Ok(Command::Prepare(name.to_string(), sql.trim().to_string()))
            }
            "BIND" => {
                let rest = require("a statement name")?;
                let (name, vals) = match rest.split_once('\t') {
                    Some((n, v)) => (n, parse_values(v)?),
                    None => (rest, Vec::new()),
                };
                Ok(Command::Bind(name.to_string(), vals))
            }
            "EXECUTE" => {
                let rest = require("a statement name")?;
                match rest.split_once('\t') {
                    Some((n, v)) => Ok(Command::Execute(n.to_string(), Some(parse_values(v)?))),
                    None => Ok(Command::Execute(rest.to_string(), None)),
                }
            }
            "EXPLAIN" if rest.is_empty() => Ok(Command::Explain),
            // `EXPLAIN SELECT …` flows through the SQL front end, which
            // has its own EXPLAIN statement form.
            "EXPLAIN" => Ok(Command::Exec(line.to_string())),
            "APPEND" => {
                let rest = require("a table and row values")?;
                let (table, vals) = rest
                    .split_once('\t')
                    .ok_or("APPEND requires a table and tab-separated row values")?;
                Ok(Command::Append(table.to_string(), parse_values(vals)?))
            }
            "DELETE" => {
                require("FROM <table> [WHERE …]")?;
                Ok(Command::Delete(line.to_string()))
            }
            "WATCH" => Ok(Command::Watch(require("a statement")?.to_string())),
            "UNWATCH" => {
                let rest = require("a watch id")?;
                rest.parse()
                    .map(Command::Unwatch)
                    .map_err(|_| format!("UNWATCH requires a numeric watch id, got `{rest}`"))
            }
            "STATS" => Ok(Command::Stats),
            "TABLES" => Ok(Command::Tables),
            "PING" => Ok(Command::Ping),
            "QUIT" => Ok(Command::Quit),
            "" => Err("empty request".to_string()),
            other => Err(format!("unknown verb `{other}`")),
        }
    }
}

/// Parse a tab-separated value list.
pub fn parse_values(s: &str) -> Result<Vec<Value>, String> {
    s.split('\t').map(parse_value).collect()
}

/// Parse one value token (see the module doc for the shapes).
pub fn parse_value(tok: &str) -> Result<Value, String> {
    let tok = tok.trim();
    if tok.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    if tok == "true" || tok == "false" {
        return Ok(Value::Bool(tok == "true"));
    }
    if let Some(inner) = tok.strip_prefix('\'') {
        let inner = inner
            .strip_suffix('\'')
            .ok_or_else(|| format!("unterminated string literal: {tok}"))?;
        return Ok(Value::from(inner.replace("''", "'").as_str()));
    }
    if let Ok(i) = tok.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = tok.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    if let Some(d) = Date::parse(tok) {
        return Ok(Value::Date(d));
    }
    if tok.is_empty() {
        return Err("empty value token".to_string());
    }
    Ok(Value::from(tok))
}

/// One reply: a status, and the body lines (unstuffed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The status line, starting `OK` or `ERR`.
    pub status: String,
    /// Body lines, without framing.
    pub body: Vec<String>,
}

impl Reply {
    pub fn ok(status: impl Into<String>) -> Reply {
        Reply {
            status: format!("OK {}", status.into()),
            body: Vec::new(),
        }
    }

    pub fn err(msg: impl std::fmt::Display) -> Reply {
        // Errors must stay one status line: collapse multi-line
        // messages so the framing cannot be broken by an error text.
        let msg = msg.to_string().replace('\n', " / ");
        Reply {
            status: format!("ERR {msg}"),
            body: Vec::new(),
        }
    }

    pub fn with_body(mut self, body: Vec<String>) -> Reply {
        self.body = body;
        self
    }

    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// Is this an asynchronous `PUSH` frame rather than a reply?
    pub fn is_push(&self) -> bool {
        self.status.starts_with(PUSH)
    }

    /// Frame the reply for the wire: status, dot-stuffed body, `.`.
    pub fn frame(&self) -> String {
        let mut out = String::with_capacity(self.status.len() + 16);
        out.push_str(&self.status);
        out.push('\n');
        for line in &self.body {
            if line.starts_with('.') {
                out.push('.');
            }
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(END);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(
            Command::parse("EXEC SELECT * FROM car\n").unwrap(),
            Command::Exec("SELECT * FROM car".into())
        );
        assert_eq!(
            Command::parse("prepare s1 SELECT * FROM car PREFERRING LOWEST(price)").unwrap(),
            Command::Prepare(
                "s1".into(),
                "SELECT * FROM car PREFERRING LOWEST(price)".into()
            )
        );
        assert_eq!(
            Command::parse("BIND s1\t42\t'red'").unwrap(),
            Command::Bind("s1".into(), vec![Value::from(42), Value::from("red")])
        );
        assert_eq!(
            Command::parse("EXECUTE s1").unwrap(),
            Command::Execute("s1".into(), None)
        );
        assert_eq!(
            Command::parse("EXECUTE s1\t7").unwrap(),
            Command::Execute("s1".into(), Some(vec![Value::from(7)]))
        );
        assert_eq!(Command::parse("EXPLAIN").unwrap(), Command::Explain);
        assert_eq!(
            Command::parse("EXPLAIN SELECT * FROM car").unwrap(),
            Command::Exec("EXPLAIN SELECT * FROM car".into())
        );
        assert_eq!(Command::parse("QUIT").unwrap(), Command::Quit);
        assert_eq!(
            Command::parse("DELETE FROM car WHERE price > 40000").unwrap(),
            Command::Delete("DELETE FROM car WHERE price > 40000".into())
        );
        assert_eq!(
            Command::parse("WATCH SELECT * FROM car PREFERRING LOWEST(price)").unwrap(),
            Command::Watch("SELECT * FROM car PREFERRING LOWEST(price)".into())
        );
        assert_eq!(Command::parse("UNWATCH 7").unwrap(), Command::Unwatch(7));
        assert!(Command::parse("UNWATCH seven").is_err());
        assert!(Command::parse("WATCH").is_err());
        assert!(Command::parse("DELETE").is_err());
        assert!(Command::parse("FROB x").is_err());
        assert!(Command::parse("").is_err());
        assert!(Command::parse("PREPARE lonely").is_err());
    }

    #[test]
    fn push_frames_use_reply_framing() {
        let frame = push_frame(3, &["+('VW', 8800)".into(), "-.dotted".into()]);
        assert_eq!(frame, "PUSH 3 2 delta(s)\n+('VW', 8800)\n-.dotted\n.\n");
        assert!(Reply {
            status: "PUSH 3 2 delta(s)".into(),
            body: vec![]
        }
        .is_push());
        assert!(!Reply::ok("x").is_push());
    }

    #[test]
    fn values_round_trip_display() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::from("station wagon"),
            Value::from("it's"),
            Value::Date(Date::parse("2002/08/20").unwrap()),
        ];
        for v in vals {
            assert_eq!(parse_value(&v.to_string()).unwrap(), v, "{v}");
        }
        assert_eq!(parse_value("bare").unwrap(), Value::from("bare"));
        assert!(parse_value("'open").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn framing_dot_stuffs_and_terminates() {
        let r = Reply::ok("2 row(s)").with_body(vec![
            "plain".into(),
            ".starts with dot".into(),
            "..two dots".into(),
        ]);
        let framed = r.frame();
        assert_eq!(
            framed,
            "OK 2 row(s)\nplain\n..starts with dot\n...two dots\n.\n"
        );
        assert!(Reply::err("multi\nline").status == "ERR multi / line");
    }
}

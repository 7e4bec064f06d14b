//! Session traffic as one request stream.

/// Interleave session scripts round-robin into one request stream:
/// arrival order mixes clients, but each session's own statements stay
/// in refinement order.
pub fn interleave_sessions(scripts: &[pref_workload::sessions::SessionScript]) -> Vec<String> {
    let mut out = Vec::new();
    let longest = scripts
        .iter()
        .map(|s| s.statements.len())
        .max()
        .unwrap_or(0);
    for step in 0..longest {
        for script in scripts {
            if let Some(sql) = script.statements.get(step) {
                out.push(sql.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_preserves_per_session_order() {
        use pref_workload::sessions::SessionScript;
        let scripts = vec![
            SessionScript {
                statements: vec!["a1".into(), "a2".into(), "a3".into()],
            },
            SessionScript {
                statements: vec!["b1".into(), "b2".into()],
            },
        ];
        let stream = interleave_sessions(&scripts);
        assert_eq!(stream, vec!["a1", "b1", "a2", "b2", "a3"]);
    }
}

//! End-to-end smoke test over real sockets: spawn the TCP server on an
//! ephemeral port, drive a short mixed workload from several client
//! connections, and assert zero errors plus at least one warm hit from
//! *every* cache tier (exact, derived, window, maintained), plus a bound
//! preference-side `$n` whose EXPLAIN shows the bound term — the
//! sequence CI runs on every push — and a `TOP k` over a 20 000-row
//! table answered within a read timeout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pref_server::{Client, Server, ServerState};
use pref_sql::PrefSql;
use pref_workload::cars;

fn start_server() -> Server {
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(300, 11));
    let state: Arc<ServerState> = ServerState::new(db);
    Server::bind(state, "127.0.0.1:0").expect("bind ephemeral port")
}

/// Send a request and require an OK reply.
fn ok(client: &mut Client, line: &str) -> Vec<String> {
    let reply = client.request(line).expect("request round-trips");
    assert!(reply.is_ok(), "{line}\n  -> {}", reply.status);
    reply.body
}

#[test]
fn tcp_mixed_workload_zero_errors_and_every_tier_warms() {
    let server = start_server();
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("client A connects");
    let mut b = Client::connect(addr).expect("client B connects");

    const PREF: &str = "PREFERRING price AROUND 9000 AND LOWEST(mileage)";

    // 1. A WHERE statement: first sighting builds (miss)…
    ok(
        &mut a,
        &format!("EXEC SELECT * FROM car WHERE make = 'VW' {PREF}"),
    );
    // 2. …and its repeat — from the *other* client — resolves through
    //    the derived-lineage tier: the matrix A built serves B.
    ok(
        &mut b,
        &format!("EXEC SELECT * FROM car WHERE make = 'VW' {PREF}"),
    );
    // 3. A no-WHERE statement warms the whole-table matrix…
    ok(&mut a, &format!("EXEC SELECT * FROM car {PREF}"));
    // 4. …so a never-seen WHERE windows onto it warm…
    ok(
        &mut b,
        &format!("EXEC SELECT * FROM car WHERE price <= 15000 {PREF}"),
    );
    // 5. …and the no-WHERE repeat is an exact hit.
    ok(&mut b, &format!("EXEC SELECT * FROM car {PREF}"));
    // 6. Append a row in place: the table mutates, the delta survives…
    ok(
        &mut a,
        "APPEND car\t'VW'\t'compact'\t'red'\t'manual'\t8800\t75\t9000\t2000\t350\t38\t3",
    );
    // 7. …so the next whole-table execution classifies the appended row
    //    against the cached result (maintained hit)…
    ok(&mut a, &format!("EXEC SELECT * FROM car {PREF}"));

    // 8. …and a parameterized WHERE, which keeps the table's matrix warm
    //    for its windows, rebuilds it (miss).
    ok(
        &mut b,
        &format!("PREPARE caps SELECT * FROM car WHERE price <= $1 {PREF}"),
    );
    ok(&mut b, "EXECUTE caps\t12000");
    ok(&mut b, "EXECUTE caps\t10000");
    let explain = ok(&mut b, "EXPLAIN");
    let cache_line = explain
        .iter()
        .find(|l| l.starts_with("cache"))
        .expect("EXPLAIN reports the cache line");
    assert!(
        cache_line.contains("window-hit"),
        "EXPLAIN must name the serving status: {cache_line}"
    );

    // 9. A preference-side `$n` binds into the statement: the report of
    //    a bound EXECUTE plans the concrete term (its rewrite derivation
    //    included) and names the statement and the values it bound.
    ok(
        &mut a,
        "PREPARE near SELECT * FROM car PREFERRING price AROUND $1 AND LOWEST(mileage) \
         AND price AROUND $2",
    );
    ok(&mut a, "EXECUTE near\t9000\t12000");
    ok(&mut a, "EXECUTE near\t9000\t9000");
    let explain = ok(&mut a, "EXPLAIN");
    assert!(
        explain
            .iter()
            .any(|l| l.starts_with("shape") && l.ends_with("bound [9000, 9000]")),
        "EXPLAIN must report the bound values: {explain:?}"
    );
    assert_eq!(
        explain.iter().filter(|l| l.starts_with("law")).count(),
        1,
        "equal bindings collapse by Prop. 3l, as inline literals do: {explain:?}"
    );

    // Every tier served at least once, and nothing errored.
    let stats = ok(&mut a, "STATS").join("\n");
    let field = |name: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {stats}"))
            .parse()
            .expect("numeric stat")
    };
    assert!(field("hits") >= 1, "exact tier: {stats}");
    assert!(field("derived_hits") >= 1, "derived tier: {stats}");
    assert!(field("window_hits") >= 1, "window tier: {stats}");
    assert!(field("maintained_hits") >= 1, "maintained tier: {stats}");
    assert!(field("misses") >= 1, "cold builds happened: {stats}");

    // Clean lifecycle: explicit QUIT, then server shutdown.
    assert!(a.request("QUIT").expect("quit").is_ok());
    assert!(b.request("QUIT").expect("quit").is_ok());
    server.shutdown();
}

#[test]
fn tcp_errors_are_replies_not_disconnects() {
    let server = start_server();
    let mut c = Client::connect(server.local_addr()).expect("connects");

    for bad in [
        "EXEC SELECT * FROM nope",
        "EXECUTE ghost",
        "FROB twiddle",
        "APPEND car\t'too'\t'few'",
    ] {
        let reply = c.request(bad).expect("error still replies");
        assert!(!reply.is_ok(), "{bad} should ERR");
        assert!(reply.status.starts_with("ERR "), "{}", reply.status);
    }
    // The connection survived all of it.
    assert!(c.request("PING").expect("ping").is_ok());
    server.shutdown();
}

#[test]
fn overlong_request_line_is_refused_and_only_that_connection_closes() {
    use std::io::{Read, Write};
    use std::time::Duration;

    let server = start_server();
    let addr = server.local_addr();

    // 2 MiB and never a newline: the server must answer ERR at its
    // 1 MiB cap and hang up instead of buffering without limit.
    let mut hostile = std::net::TcpStream::connect(addr).expect("connects");
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    // The server may hang up mid-write; that is the point.
    let _ = hostile.write_all(&vec![b'x'; 2 * pref_server::server::MAX_REQUEST_LINE]);
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    // Read to EOF / reset; a timeout (the unbounded server never
    // replies) leaves `reply` empty and fails the assertion below.
    while let Ok(n) = hostile.read(&mut buf) {
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&buf[..n]);
    }
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("ERR request line too long"),
        "expected the typed ERR, got {reply:?}"
    );

    // Everyone else is still served.
    let mut c = Client::connect(addr).expect("second connection connects");
    assert!(c.request("PING").expect("ping").is_ok());
    server.shutdown();
}

#[test]
fn top_k_over_twenty_thousand_rows_answers_in_time() {
    use std::io::{BufRead, BufReader, Write};

    // TOP k peels BMO layers, each one winnow over the rows not yet
    // peeled; a better-than graph over these rows costs O(n³).
    let table = cars::catalog(20_000, 1);
    let mut prices: Vec<i64> = (table.iter())
        .map(|t| t[4].as_int().expect("price"))
        .collect();
    prices.sort_unstable();
    let mut db = PrefSql::new();
    db.register("car", table);
    let server = Server::bind(ServerState::new(db), "127.0.0.1:0").expect("bind ephemeral port");

    // A raw connection with a read timeout: a slow answer fails the test
    // instead of hanging it.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    let started = Instant::now();
    stream
        .write_all(b"EXEC SELECT TOP 3 * FROM car PREFERRING LOWEST(price)\n")
        .expect("request sent");
    let reply: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("reply line within the read timeout"))
        .take_while(|l| l != ".")
        .collect();
    eprintln!("TOP 3 over 20 000 rows: {:?}", started.elapsed());
    // Status, schema header, then the three cheapest cars, cheapest
    // first.
    assert!(reply[0].starts_with("OK"), "{reply:?}");
    let price = |row: &String| -> i64 {
        let field = row.trim_matches(['(', ')']).split(", ").nth(4);
        field.expect("price field").parse().expect("int")
    };
    let got: Vec<i64> = reply[2..].iter().map(price).collect();
    assert_eq!(got, prices[..3], "{reply:?}");
    server.shutdown();
}

#[test]
fn concurrent_tcp_clients_agree() {
    let server = start_server();
    let addr = server.local_addr();
    let sql = "EXEC SELECT * FROM car WHERE category = 'sedan' \
               PREFERRING price AROUND 8000 AND HIGHEST(year)";

    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connects");
                    let mut out = String::new();
                    for _ in 0..5 {
                        let reply = c.request(sql).expect("round-trips");
                        assert!(reply.is_ok(), "{}", reply.status);
                        out.push_str(&reply.frame());
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert!(
        replies.windows(2).all(|w| w[0] == w[1]),
        "clients saw different answers to the same statement"
    );
    server.shutdown();
    // Meaningful under `--cfg lock_diag` builds (the full wire path fed
    // the lock-order graph); trivially None otherwise.
    assert!(
        parking_lot::lock_diag::cycle_report().is_none(),
        "lock-order cycle during concurrent TCP traffic:\n{}",
        parking_lot::lock_diag::cycle_report().unwrap_or_default()
    );
}

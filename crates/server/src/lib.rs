//! # pref-server — the concurrent preference query service
//!
//! The paper positions Preference SQL as a client/server system serving
//! many interactive e-shopping sessions; this crate is that server. All
//! sessions share one [`PrefSql`](pref_sql::PrefSql) database — one
//! catalog, one [`Engine`](pref_query::Engine) — so a matrix any
//! session warms is warm for every session, and the engine's read-mostly
//! caches let concurrent warm hits share a read lock instead of queuing
//! behind one another.
//!
//! Three layers:
//!
//! - [`protocol`] — the wire format: line-delimited requests
//!   (`EXEC` / `PREPARE` / `BIND` / `EXECUTE` / `EXPLAIN` / `APPEND` /
//!   `STATS` / `TABLES` / `PING` / `QUIT`), dot-terminated replies.
//! - [`session`] — [`ServerState`] (the shared database behind a
//!   read/write lock) and [`Session`] (per-client statement handles and
//!   bindings). A `Session` is plain in-process state: tests drive it
//!   directly, no socket needed.
//! - [`server`] / [`client`] — the `std::net` TCP front end
//!   (thread-per-connection) and a small blocking client.
//!
//! ```
//! use pref_relation::rel;
//! use pref_server::ServerState;
//! use pref_sql::PrefSql;
//!
//! let mut db = PrefSql::new();
//! db.register("car", rel! {
//!     ("make": Str, "price": Int);
//!     ("Opel", 38_000), ("BMW", 45_000),
//! });
//! let state = ServerState::new(db);
//! let mut session = state.session();
//! let reply = session.handle_line("EXEC SELECT * FROM car PREFERRING LOWEST(price)");
//! assert_eq!(reply.status, "OK 1 row(s)");
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::Client;
pub use protocol::{Command, Reply};
pub use server::Server;
pub use session::{ServerState, Session, WatchSink};

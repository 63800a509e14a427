//! Direct tests for `fc::net::client` — previously exercised only
//! through server round-trips. Mock servers speaking raw bytes pin
//! down the client's own behavior: malformed responses are typed
//! errors (not panics or hangs), `Conn` keep-alive reuse really reuses
//! one TCP connection, timeouts fire, and `ClientPool` parks, reuses,
//! and retires connections as documented.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_clean::net::client::{self, ClientPool, Conn};

/// Boots a raw-byte mock server; `serve` is called once per accepted
/// connection with (connection index, socket). Returns the address
/// and the accepted-connection counter. The accept thread is detached
/// (reaped at process exit, as is usual for test fixtures).
fn mock_server<F>(serve: F) -> (SocketAddr, Arc<AtomicUsize>)
where
    F: Fn(usize, TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let accepted = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(sock) = stream else { continue };
            let index = counter.fetch_add(1, Ordering::SeqCst);
            serve(index, sock);
        }
    });
    (addr, accepted)
}

/// Reads one request off `sock` (headers + `Content-Length` body);
/// returns false on close/error.
fn consume_request(sock: &mut TcpStream) -> bool {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match sock.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return false,
        }
    }
    let text = String::from_utf8_lossy(&head).to_ascii_lowercase();
    let length: usize = text
        .lines()
        .find_map(|line| line.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    length == 0 || sock.read_exact(&mut body).is_ok()
}

fn respond_with(raw: &'static str) -> impl Fn(usize, TcpStream) + Send + 'static {
    move |_, mut sock| {
        if consume_request(&mut sock) {
            let _ = sock.write_all(raw.as_bytes());
        }
    }
}

fn expect_err(result: io::Result<(u16, String)>, kinds: &[ErrorKind], what: &str) {
    match result {
        Ok((status, body)) => panic!("{what}: expected an error, got {status} {body:?}"),
        Err(e) => assert!(
            kinds.contains(&e.kind()),
            "{what}: unexpected error kind {:?} ({e})",
            e.kind()
        ),
    }
}

// ------------------------------------------------- malformed responses

#[test]
fn garbage_status_line_is_invalid_data() {
    let (addr, _) = mock_server(respond_with("not http at all\r\n\r\n"));
    expect_err(
        client::get(addr, "/"),
        &[ErrorKind::InvalidData],
        "garbage status line",
    );
}

#[test]
fn unparseable_content_length_is_invalid_data() {
    let (addr, _) = mock_server(respond_with(
        "HTTP/1.1 200 OK\r\ncontent-length: many\r\n\r\n",
    ));
    expect_err(
        client::get(addr, "/"),
        &[ErrorKind::InvalidData],
        "bad content-length",
    );
}

#[test]
fn truncated_body_is_unexpected_eof() {
    // Claims 10 body bytes, sends 3, closes.
    let (addr, _) = mock_server(respond_with(
        "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc",
    ));
    expect_err(
        client::get(addr, "/"),
        &[ErrorKind::UnexpectedEof],
        "truncated body",
    );
}

#[test]
fn close_before_response_is_unexpected_eof() {
    // The mock must read the request before closing: dropping a socket
    // with unread data provokes an RST (ConnectionReset) rather than
    // the clean FIN → EOF this test pins down.
    let (addr, _) = mock_server(|_, mut sock| {
        consume_request(&mut sock);
    });
    expect_err(
        client::get(addr, "/"),
        &[ErrorKind::UnexpectedEof],
        "close before response",
    );
}

#[test]
fn non_utf8_body_is_invalid_data() {
    let (addr, _) = mock_server(|_, mut sock| {
        if consume_request(&mut sock) {
            let _ = sock.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n\xff\xfe");
        }
    });
    expect_err(
        client::get(addr, "/"),
        &[ErrorKind::InvalidData],
        "non-UTF-8 body",
    );
}

#[test]
fn overflowing_content_length_is_a_typed_error() {
    // usize::MAX declared, three bytes sent, then close: the body is
    // short, not an arithmetic overflow or a giant allocation.
    let (addr, _) = mock_server(respond_with(
        "HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nabc",
    ));
    expect_err(
        client::get(addr, "/"),
        &[ErrorKind::UnexpectedEof, ErrorKind::InvalidData],
        "overflowing content-length",
    );
}

#[test]
fn oversized_response_head_is_invalid_data() {
    // 16 KiB of header bytes with no blank line, socket held open: the
    // head cap refuses it at once instead of reading until the timeout.
    let (addr, _) = mock_server(|_, mut sock| {
        if consume_request(&mut sock) {
            let mut head = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
            head.resize(16 * 1024, b'a');
            let _ = sock.write_all(&head);
            std::thread::sleep(Duration::from_secs(30));
        }
    });
    let mut conn = Conn::connect(addr, Some(Duration::from_secs(2))).expect("connect");
    let started = Instant::now();
    expect_err(
        conn.send("GET", "/", &[], ""),
        &[ErrorKind::InvalidData],
        "oversized head",
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the cap must fire before the read timeout: {:?}",
        started.elapsed()
    );
    assert!(!conn.reusable(), "a failed exchange retires the Conn");
}

// ---------------------------------------------------------- timeouts

#[test]
fn read_timeout_fires_on_a_silent_server() {
    // Accepts, reads the request, never answers.
    let (addr, _) = mock_server(|_, mut sock| {
        if consume_request(&mut sock) {
            std::thread::sleep(Duration::from_secs(30));
        }
    });
    let mut conn = Conn::connect(addr, Some(Duration::from_millis(100))).expect("connect");
    let started = Instant::now();
    expect_err(
        conn.send("GET", "/", &[], ""),
        &[ErrorKind::WouldBlock, ErrorKind::TimedOut],
        "silent server",
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout did not bound the wait: {:?}",
        started.elapsed()
    );
}

// --------------------------------------------------- keep-alive reuse

#[test]
fn conn_reuses_one_tcp_connection_across_requests() {
    let (addr, accepted) = mock_server(|index, mut sock| {
        while consume_request(&mut sock) {
            let body = format!("{{\"conn\":{index}}}");
            let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
            if sock.write_all(head.as_bytes()).is_err() || sock.write_all(body.as_bytes()).is_err()
            {
                return;
            }
        }
    });
    let mut conn = Conn::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    for i in 0..5 {
        let (status, body) = conn.send("GET", "/", &[], "").expect("exchange");
        assert_eq!(status, 200, "request {i}");
        assert_eq!(body, "{\"conn\":0}", "request {i} crossed connections");
        assert!(conn.reusable());
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "five requests must ride one TCP connection"
    );
}

#[test]
fn connection_close_header_retires_the_connection() {
    let (addr, _) = mock_server(respond_with(
        "HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-length: 2\r\n\r\nok",
    ));
    let mut conn = Conn::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    let (status, body) = conn.send("GET", "/", &[], "").expect("exchange");
    assert_eq!((status, body.as_str()), (200, "ok"));
    assert!(!conn.reusable(), "connection: close must retire the Conn");
}

// ------------------------------------------------------------- pool

fn keep_alive_mock() -> (SocketAddr, Arc<AtomicUsize>) {
    mock_server(|_, mut sock| {
        while consume_request(&mut sock) {
            let response = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
            if sock.write_all(response.as_bytes()).is_err() {
                return;
            }
        }
    })
}

#[test]
fn pool_parks_and_reuses_connections() {
    let (addr, accepted) = keep_alive_mock();
    let pool = ClientPool::new(addr)
        .expect("pool")
        .with_timeout(Duration::from_secs(5));
    for _ in 0..4 {
        let (status, _) = pool.get("/").expect("pooled GET");
        assert_eq!(status, 200);
    }
    assert_eq!(
        pool.idle_connections(),
        1,
        "sequential requests share one parked conn"
    );
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "four pooled requests must ride one TCP connection"
    );
}

#[test]
fn pool_retries_a_stale_parked_connection() {
    // Closes each connection after serving ONE response: every parked
    // connection is stale by the time it is reused.
    let (addr, accepted) = mock_server(|_, mut sock| {
        if consume_request(&mut sock) {
            let _ = sock.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
        }
        // Dropping the socket closes it without a connection: close
        // header — the client parks it believing it reusable.
    });
    let pool = ClientPool::new(addr)
        .expect("pool")
        .with_timeout(Duration::from_secs(5));
    for i in 0..3 {
        let (status, _) = pool
            .request("GET", "/", &[], "")
            .expect("request {i} survives staleness");
        assert_eq!(status, 200, "request {i}");
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        3,
        "each retry must open a fresh connection"
    );
}

#[test]
fn pool_respects_max_idle_zero() {
    let (addr, accepted) = keep_alive_mock();
    let pool = ClientPool::new(addr)
        .expect("pool")
        .with_timeout(Duration::from_secs(5))
        .with_max_idle(0);
    for _ in 0..3 {
        let (status, _) = pool.get("/").expect("GET");
        assert_eq!(status, 200);
    }
    assert_eq!(pool.idle_connections(), 0, "max_idle 0 must park nothing");
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        3,
        "with no parking every request connects fresh"
    );
}

#[test]
fn probed_pool_requests_reuse_one_connection() {
    let (addr, accepted) = keep_alive_mock();
    let pool = ClientPool::new(addr)
        .expect("pool")
        .with_timeout(Duration::from_secs(5));
    let mut alive = || true;
    for _ in 0..4 {
        let response = pool
            .request_with_probe("GET", "/", &[], "", Duration::from_millis(50), &mut alive)
            .expect("probed GET");
        assert_eq!(response.map(|(status, _)| status), Some(200));
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "four probed pooled requests must ride one TCP connection"
    );
}

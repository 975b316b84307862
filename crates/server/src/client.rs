//! A minimal blocking protocol client: one line out, one line back.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde_json::Value;

use crate::protocol::Request;

/// One protocol connection. The server serves any number of request
/// lines per connection, so a client keeps one for its whole run and
/// only reconnects after a transport failure.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    /// Connects to the server with the default 30-second I/O timeout.
    ///
    /// # Errors
    /// Propagates socket errors as strings.
    pub fn open<A: ToSocketAddrs>(addr: A) -> Result<Conn, String> {
        Conn::open_timeout(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit deadline applied to the connect itself
    /// and to every subsequent read and write. A blackholed or wedged
    /// peer therefore surfaces as a clean timeout error in bounded time
    /// — a `Conn` can never hang its caller indefinitely.
    ///
    /// # Errors
    /// Propagates socket errors as strings.
    pub fn open_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> Result<Conn, String> {
        let mut last = "address resolved to nothing".to_owned();
        for sock_addr in addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve: {e}"))?
        {
            match TcpStream::connect_timeout(&sock_addr, timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(timeout));
                    let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                        buf: String::new(),
                    });
                }
                Err(e) => last = format!("connect: {e}"),
            }
        }
        Err(last)
    }

    /// Connects with retries — covers the window between spawning a
    /// server process and its listener binding.
    ///
    /// # Errors
    /// The last connect error once `attempts` are exhausted.
    pub fn open_retry<A: ToSocketAddrs + Copy>(addr: A, attempts: u32) -> Result<Conn, String> {
        let mut last = "no attempts".to_owned();
        for i in 0..attempts.max(1) {
            match Conn::open(addr) {
                Ok(conn) => return Ok(conn),
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(20 * u64::from(i + 1)));
        }
        Err(last)
    }

    /// Sends one request and reads one response line.
    ///
    /// # Errors
    /// I/O failures, closed connections, and unparseable responses.
    pub fn call(&mut self, req: &Request) -> Result<Value, String> {
        self.call_traced(req, None)
    }

    /// Sends one request with an optional trace id stamped on the line
    /// (`None` / zero sends the plain encoding) and reads one response.
    ///
    /// # Errors
    /// I/O failures, closed connections, and unparseable responses.
    pub fn call_traced(&mut self, req: &Request, trace: Option<u64>) -> Result<Value, String> {
        self.send_traced(req, trace)?;
        self.recv()
    }

    /// Writes one request line without waiting for the response —
    /// for callers that must tell a lost request from a lost reply.
    ///
    /// # Errors
    /// I/O failures.
    pub(crate) fn send(&mut self, req: &Request) -> Result<(), String> {
        self.send_traced(req, None)
    }

    fn send_traced(&mut self, req: &Request, trace: Option<u64>) -> Result<(), String> {
        serde_json::write_to_string(&req.to_value_traced(trace), &mut self.buf);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line.
    ///
    /// # Errors
    /// I/O failures, closed connections, and unparseable responses.
    pub(crate) fn recv(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if line.is_empty() {
            return Err("connection closed by server".to_owned());
        }
        serde_json::from_str(&line).map_err(|_| format!("unparseable response: {line}"))
    }
}

/// Opens a fresh connection, issues one request, and closes.
///
/// # Errors
/// See [`Conn::call`].
pub fn call_once<A: ToSocketAddrs>(addr: A, req: &Request) -> Result<Value, String> {
    Conn::open(addr)?.call(req)
}

//! A minimal blocking client for the daemon (tests, CI, benches, and
//! the `pspdg_client` bin all drive the server through this).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use pspdg_obs::json::{parse, Value};
use pspdg_parallelizer::Abstraction;

use crate::proto::{encode_request, Envelope, Input, Request};
use crate::server::MAX_REQUEST_BYTES;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or server hangup).
    Io(std::io::Error),
    /// The server's response line was not valid JSON.
    BadResponse(String),
    /// The server answered `"ok": false`; the payload is its `"error"`.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::BadResponse(e) => write!(f, "unparseable response: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection to a [`PlanService`](crate::server::PlanService);
/// requests are sent synchronously, one response line per request.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish()
    }
}

impl Client {
    /// Connect to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One request line per round-trip: Nagle + delayed ACK would add
        // tens of milliseconds to every warm (microsecond) request.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
        })
    }

    /// Send one request and block for the raw response line (verbatim,
    /// newline stripped, no `"ok"` check) — what `pspdg_client` prints.
    /// A response line is bounded like a request line, by
    /// [`MAX_REQUEST_BYTES`] (four orders of magnitude above the largest
    /// response `benchmark/run.sh --smoke` draws, a `metrics` answer under
    /// 1 KB): a longer one is refused as [`ClientError::BadResponse`] and
    /// leaves the connection unusable.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call_raw(&mut self, request: Request) -> Result<String, ClientError> {
        self.next_id += 1;
        let env = Envelope {
            request,
            id: Some(format!("c{}", self.next_id)),
        };
        let mut line = encode_request(&env);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = (&mut self.reader)
            .take(MAX_REQUEST_BYTES as u64)
            .read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        if n == MAX_REQUEST_BYTES && !response.ends_with('\n') {
            return Err(ClientError::BadResponse("response too large".to_string()));
        }
        // Trim in place: the line is not copied a second time.
        response.truncate(response.trim_end().len());
        response.drain(..response.len() - response.trim_start().len());
        Ok(response)
    }

    /// Send one request and block for its response object. Successful
    /// responses (`"ok": true`) come back as parsed JSON; `"ok": false`
    /// becomes [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call(&mut self, request: Request) -> Result<Value, ClientError> {
        let raw = self.call_raw(request)?;
        let v = parse(&raw).map_err(|e| ClientError::BadResponse(format!("{e}: {raw}")))?;
        if matches!(v.get("ok"), Some(Value::Bool(true))) {
            Ok(v)
        } else {
            let msg = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown server error")
                .to_string();
            Err(ClientError::Server(msg))
        }
    }

    /// Liveness round-trip.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Request::Ping).map(|_| ())
    }

    /// Plan ParC `source` under `abstraction`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn plan(&mut self, source: &str, abstraction: Abstraction) -> Result<Value, ClientError> {
        self.call(Request::Plan {
            input: Input::Source(source.to_string()),
            abstraction,
        })
    }

    /// Plan, execute, and diff `source` against its sequential baseline.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn execute(
        &mut self,
        source: &str,
        abstraction: Abstraction,
        workers: Option<usize>,
    ) -> Result<Value, ClientError> {
        self.call(Request::Execute {
            input: Input::Source(source.to_string()),
            abstraction,
            workers,
        })
    }

    /// Execute plus the ideal-machine prediction (predicted-vs-measured).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn report(
        &mut self,
        source: &str,
        abstraction: Abstraction,
        workers: Option<usize>,
    ) -> Result<Value, ClientError> {
        self.call(Request::Report {
            input: Input::Source(source.to_string()),
            abstraction,
            workers,
        })
    }

    /// Live daemon counters (cache, queue, spans).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.call(Request::Metrics)
    }

    /// Ask the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Request::Shutdown).map(|_| ())
    }
}

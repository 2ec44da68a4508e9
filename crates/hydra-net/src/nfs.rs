//! NFS-lite: a miniature network file protocol and in-memory NAS.
//!
//! The paper's testbed stores all media on a NAS: the video server reads
//! movies over NFS, and the "smart disk" (a programmable NIC exporting a
//! block device) writes the recorded stream back to the same NAS. This
//! module provides the protocol ([`NfsRequest`]/[`NfsResponse`] with a
//! compact wire encoding) and the server ([`NasServer`]) with a simple
//! service-time model.

use std::collections::HashMap;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hydra_sim::time::SimDuration;

/// An opaque file handle issued by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle(pub u64);

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fh:{}", self.0)
    }
}

/// A request from client to server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsRequest {
    /// Resolve a path to a handle.
    Lookup {
        /// Path to resolve.
        path: String,
    },
    /// Create (or truncate) a file and return its handle.
    Create {
        /// Path to create.
        path: String,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Target file.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Bytes requested.
        len: u32,
    },
    /// Write `data` at `offset`.
    Write {
        /// Target file.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Data to write.
        data: Bytes,
    },
    /// Query file size.
    GetAttr {
        /// Target file.
        fh: FileHandle,
    },
}

/// A response from server to client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsResponse {
    /// Successful lookup/create.
    Handle(FileHandle),
    /// Successful read (may be shorter than requested at EOF).
    Data(Bytes),
    /// Successful write of this many bytes.
    Written(u32),
    /// Attributes: current size in bytes.
    Attr {
        /// File size.
        size: u64,
    },
    /// Failure.
    Error(NfsError),
}

/// Protocol errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsError {
    /// Path not found on lookup.
    NotFound,
    /// Handle not recognized.
    StaleHandle,
    /// Malformed request bytes.
    BadRequest,
}

impl fmt::Display for NfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NfsError::NotFound => "path not found",
            NfsError::StaleHandle => "stale file handle",
            NfsError::BadRequest => "malformed request",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NfsError {}

const OP_LOOKUP: u8 = 1;
const OP_CREATE: u8 = 2;
const OP_READ: u8 = 3;
const OP_WRITE: u8 = 4;
const OP_GETATTR: u8 = 5;

impl NfsRequest {
    /// Encodes the request to its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            NfsRequest::Lookup { path } => {
                b.put_u8(OP_LOOKUP);
                b.put_u16(path.len() as u16);
                b.put_slice(path.as_bytes());
            }
            NfsRequest::Create { path } => {
                b.put_u8(OP_CREATE);
                b.put_u16(path.len() as u16);
                b.put_slice(path.as_bytes());
            }
            NfsRequest::Read { fh, offset, len } => {
                b.put_u8(OP_READ);
                b.put_u64(fh.0);
                b.put_u64(*offset);
                b.put_u32(*len);
            }
            NfsRequest::Write { fh, offset, data } => {
                b.put_u8(OP_WRITE);
                b.put_u64(fh.0);
                b.put_u64(*offset);
                b.put_u32(data.len() as u32);
                b.put_slice(data);
            }
            NfsRequest::GetAttr { fh } => {
                b.put_u8(OP_GETATTR);
                b.put_u64(fh.0);
            }
        }
        b.freeze()
    }

    /// Decodes a request from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NfsError::BadRequest`] on truncated or unknown input.
    pub fn decode(mut raw: Bytes) -> Result<NfsRequest, NfsError> {
        if raw.is_empty() {
            return Err(NfsError::BadRequest);
        }
        let op = raw.get_u8();
        let take_path = |raw: &mut Bytes| -> Result<String, NfsError> {
            if raw.remaining() < 2 {
                return Err(NfsError::BadRequest);
            }
            let n = raw.get_u16() as usize;
            if raw.remaining() < n {
                return Err(NfsError::BadRequest);
            }
            let path = raw.split_to(n);
            String::from_utf8(path.to_vec()).map_err(|_| NfsError::BadRequest)
        };
        match op {
            OP_LOOKUP => Ok(NfsRequest::Lookup {
                path: take_path(&mut raw)?,
            }),
            OP_CREATE => Ok(NfsRequest::Create {
                path: take_path(&mut raw)?,
            }),
            OP_READ => {
                if raw.remaining() < 20 {
                    return Err(NfsError::BadRequest);
                }
                Ok(NfsRequest::Read {
                    fh: FileHandle(raw.get_u64()),
                    offset: raw.get_u64(),
                    len: raw.get_u32(),
                })
            }
            OP_WRITE => {
                if raw.remaining() < 20 {
                    return Err(NfsError::BadRequest);
                }
                let fh = FileHandle(raw.get_u64());
                let offset = raw.get_u64();
                let n = raw.get_u32() as usize;
                if raw.remaining() < n {
                    return Err(NfsError::BadRequest);
                }
                Ok(NfsRequest::Write {
                    fh,
                    offset,
                    data: raw.split_to(n),
                })
            }
            OP_GETATTR => {
                if raw.remaining() < 8 {
                    return Err(NfsError::BadRequest);
                }
                Ok(NfsRequest::GetAttr {
                    fh: FileHandle(raw.get_u64()),
                })
            }
            _ => Err(NfsError::BadRequest),
        }
    }
}

/// Per-operation service-time model of the NAS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NasTiming {
    /// Fixed cost of any request (RPC decode, metadata).
    pub per_request: SimDuration,
    /// Additional cost per kilobyte of data moved.
    pub per_kib: SimDuration,
}

impl Default for NasTiming {
    fn default() -> Self {
        Self::typical()
    }
}

impl NasTiming {
    /// A mid-2000s NAS head with cached disks.
    pub fn typical() -> Self {
        NasTiming {
            per_request: SimDuration::from_micros(80),
            per_kib: SimDuration::from_micros(9),
        }
    }
}

/// An in-memory NAS: file store + protocol handler.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hydra_net::nfs::{NasServer, NfsRequest, NfsResponse};
///
/// let mut nas = NasServer::new(Default::default());
/// let (resp, _t) = nas.handle(&NfsRequest::Create { path: "/movie.mpg".into() });
/// let NfsResponse::Handle(fh) = resp else { panic!() };
/// let (resp, _t) = nas.handle(&NfsRequest::Write { fh, offset: 0, data: Bytes::from_static(b"abc") });
/// assert_eq!(resp, NfsResponse::Written(3));
/// ```
#[derive(Debug, Clone)]
pub struct NasServer {
    timing: NasTiming,
    files: HashMap<FileHandle, Vec<u8>>,
    paths: HashMap<String, FileHandle>,
    next_handle: u64,
}

impl Default for NasServer {
    fn default() -> Self {
        Self::new(NasTiming::typical())
    }
}

impl NasServer {
    /// Creates an empty NAS.
    pub fn new(timing: NasTiming) -> Self {
        NasServer {
            timing,
            files: HashMap::new(),
            paths: HashMap::new(),
            next_handle: 1,
        }
    }

    /// Preloads a file (e.g. the movie the video server streams).
    pub fn preload(&mut self, path: &str, contents: Vec<u8>) -> FileHandle {
        let fh = FileHandle(self.next_handle);
        self.next_handle += 1;
        self.files.insert(fh, contents);
        self.paths.insert(path.to_owned(), fh);
        fh
    }

    /// Current size of the file behind `fh`, if it exists.
    pub fn file_size(&self, fh: FileHandle) -> Option<u64> {
        self.files.get(&fh).map(|f| f.len() as u64)
    }

    /// Handles one request, returning the response and the service time.
    pub fn handle(&mut self, req: &NfsRequest) -> (NfsResponse, SimDuration) {
        let mut data_bytes = 0usize;
        let resp = match req {
            NfsRequest::Lookup { path } => match self.paths.get(path) {
                Some(&fh) => NfsResponse::Handle(fh),
                None => NfsResponse::Error(NfsError::NotFound),
            },
            NfsRequest::Create { path } => {
                let fh = *self.paths.entry(path.clone()).or_insert_with(|| {
                    let fh = FileHandle(self.next_handle);
                    self.next_handle += 1;
                    fh
                });
                self.files.insert(fh, Vec::new());
                NfsResponse::Handle(fh)
            }
            NfsRequest::Read { fh, offset, len } => match self.files.get(fh) {
                None => NfsResponse::Error(NfsError::StaleHandle),
                Some(f) => {
                    let start = (*offset as usize).min(f.len());
                    let end = (start + *len as usize).min(f.len());
                    data_bytes = end - start;
                    NfsResponse::Data(Bytes::copy_from_slice(&f[start..end]))
                }
            },
            NfsRequest::Write { fh, offset, data } => match self.files.get_mut(fh) {
                None => NfsResponse::Error(NfsError::StaleHandle),
                Some(f) => {
                    let end = *offset as usize + data.len();
                    if f.len() < end {
                        f.resize(end, 0);
                    }
                    f[*offset as usize..end].copy_from_slice(data);
                    data_bytes = data.len();
                    NfsResponse::Written(data.len() as u32)
                }
            },
            NfsRequest::GetAttr { fh } => match self.files.get(fh) {
                None => NfsResponse::Error(NfsError::StaleHandle),
                Some(f) => NfsResponse::Attr {
                    size: f.len() as u64,
                },
            },
        };
        let service =
            self.timing.per_request + self.timing.per_kib * (data_bytes as u64).div_ceil(1024);
        (resp, service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_round_trip() {
        let mut nas = NasServer::default();
        let (r, _) = nas.handle(&NfsRequest::Create { path: "/a".into() });
        let NfsResponse::Handle(fh) = r else {
            panic!("{r:?}")
        };
        nas.handle(&NfsRequest::Write {
            fh,
            offset: 0,
            data: Bytes::from_static(b"hello world"),
        });
        let (r, _) = nas.handle(&NfsRequest::Read {
            fh,
            offset: 6,
            len: 5,
        });
        assert_eq!(r, NfsResponse::Data(Bytes::from_static(b"world")));
    }

    #[test]
    fn lookup_preloaded_file() {
        let mut nas = NasServer::default();
        let fh = nas.preload("/movie", vec![7; 100]);
        let (r, _) = nas.handle(&NfsRequest::Lookup {
            path: "/movie".into(),
        });
        assert_eq!(r, NfsResponse::Handle(fh));
        let (r, _) = nas.handle(&NfsRequest::GetAttr { fh });
        assert_eq!(r, NfsResponse::Attr { size: 100 });
    }

    #[test]
    fn lookup_missing_is_not_found() {
        let mut nas = NasServer::default();
        let (r, _) = nas.handle(&NfsRequest::Lookup { path: "/x".into() });
        assert_eq!(r, NfsResponse::Error(NfsError::NotFound));
    }

    #[test]
    fn stale_handle_reported() {
        let mut nas = NasServer::default();
        let (r, _) = nas.handle(&NfsRequest::Read {
            fh: FileHandle(999),
            offset: 0,
            len: 1,
        });
        assert_eq!(r, NfsResponse::Error(NfsError::StaleHandle));
    }

    #[test]
    fn read_past_eof_truncates() {
        let mut nas = NasServer::default();
        let fh = nas.preload("/f", vec![1, 2, 3]);
        let (r, _) = nas.handle(&NfsRequest::Read {
            fh,
            offset: 2,
            len: 10,
        });
        assert_eq!(r, NfsResponse::Data(Bytes::from_static(&[3])));
        let (r, _) = nas.handle(&NfsRequest::Read {
            fh,
            offset: 50,
            len: 10,
        });
        assert_eq!(r, NfsResponse::Data(Bytes::new()));
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut nas = NasServer::default();
        let fh = nas.preload("/f", vec![]);
        nas.handle(&NfsRequest::Write {
            fh,
            offset: 4,
            data: Bytes::from_static(b"x"),
        });
        let (r, _) = nas.handle(&NfsRequest::Read {
            fh,
            offset: 0,
            len: 5,
        });
        assert_eq!(
            r,
            NfsResponse::Data(Bytes::from_static(&[0, 0, 0, 0, b'x']))
        );
    }

    #[test]
    fn create_truncates_existing() {
        let mut nas = NasServer::default();
        let fh = nas.preload("/f", vec![1; 10]);
        let (r, _) = nas.handle(&NfsRequest::Create { path: "/f".into() });
        assert_eq!(r, NfsResponse::Handle(fh));
        assert_eq!(nas.file_size(fh), Some(0));
    }

    #[test]
    fn service_time_scales_with_data() {
        let mut nas = NasServer::new(NasTiming {
            per_request: SimDuration::from_micros(100),
            per_kib: SimDuration::from_micros(10),
        });
        let fh = nas.preload("/f", vec![0; 8192]);
        let (_, t_small) = nas.handle(&NfsRequest::Read {
            fh,
            offset: 0,
            len: 1024,
        });
        let (_, t_large) = nas.handle(&NfsRequest::Read {
            fh,
            offset: 0,
            len: 8192,
        });
        assert_eq!(t_small, SimDuration::from_micros(110));
        assert_eq!(t_large, SimDuration::from_micros(180));
    }

    #[test]
    fn wire_round_trip_all_ops() {
        let reqs = vec![
            NfsRequest::Lookup {
                path: "/a/b".into(),
            },
            NfsRequest::Create { path: "/c".into() },
            NfsRequest::Read {
                fh: FileHandle(7),
                offset: 1024,
                len: 512,
            },
            NfsRequest::Write {
                fh: FileHandle(9),
                offset: 4096,
                data: Bytes::from_static(b"payload"),
            },
            NfsRequest::GetAttr { fh: FileHandle(3) },
        ];
        for req in reqs {
            let decoded = NfsRequest::decode(req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(NfsRequest::decode(Bytes::new()), Err(NfsError::BadRequest));
        assert_eq!(
            NfsRequest::decode(Bytes::from_static(&[99])),
            Err(NfsError::BadRequest)
        );
        // Truncated read.
        assert_eq!(
            NfsRequest::decode(Bytes::from_static(&[OP_READ, 1, 2])),
            Err(NfsError::BadRequest)
        );
        // Write with length exceeding remaining bytes.
        let mut b = BytesMut::new();
        b.put_u8(OP_WRITE);
        b.put_u64(1);
        b.put_u64(0);
        b.put_u32(100);
        b.put_slice(b"short");
        assert_eq!(NfsRequest::decode(b.freeze()), Err(NfsError::BadRequest));
    }
}

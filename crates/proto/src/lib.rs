//! # lbq-proto — the binary wire format
//!
//! The paper's central artifact — the answer *plus* the validity region
//! and influence set — is explicitly designed as a compact client
//! payload (its Section 1 argument: ship the region once, absorb the
//! client's repeat queries for free). This crate is that payload's wire
//! form: a versioned, length-prefixed, little-endian binary framing
//! shared by the TCP front-end (`lbq-net`) and its clients.
//!
//! **The normative spec lives in `docs/PROTOCOL.md`** (repository
//! root) — frame layout tables with byte offsets, the error-code
//! registry, version negotiation, forward-compatibility rules, and an
//! annotated hexdump of a full kNN exchange. This crate implements that
//! document; the `golden_frames` test decodes the hexdumps quoted in
//! the document and pins them against these encoders, so the two cannot
//! drift apart silently.
//!
//! ## Shape of a frame
//!
//! ```text
//! 0         4    5     6         8         12
//! +---------+----+-----+---------+---------+------------------+
//! | "LBQ1"  | v  | type| reserved| len u32 | payload (len B)  |
//! +---------+----+-----+---------+---------+------------------+
//! ```
//!
//! Requests ([`KnnRequest`], [`WindowRequest`]) are fixed-size and
//! carry a client-chosen `request_id`; responses echo it together with
//! the engine's `query_id`, the serving-tier flags (tree / region
//! cache / hot-tile Voronoi, [`CacheTier`]), the per-stage latency
//! attribution ([`lbq_obs::StageNanos`]), and the full answer —
//! result items, validity-region vertices, and the influence set.
//! Errors carry a stable numeric [`ErrorCode`].
//!
//! ## Guarantees
//!
//! * **No panics.** [`decode_frame`] is total: any byte string produces
//!   a frame, an incompleteness hint, or a [`WireError`] — fuzzed by
//!   the adversarial decode tests.
//! * **Bounded allocation.** Element counts are validated against the
//!   declared payload length (itself capped by the receiver) before any
//!   reservation.
//! * **Byte-identical serving.** [`encode_query_response`] is a pure
//!   function of `(request_id, response)`: what a socket client
//!   receives is bit-for-bit the encoding of the in-process
//!   [`lbq_serve::QueryResp`].
//! * **Forward compatibility.** Unknown frame types decode to
//!   [`Decoded::Unknown`] with a skip length, so a v1 peer survives
//!   frames minted by future revisions; unknown error codes stay
//!   readable as numbers.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod convert;
mod frames;
mod wire;

pub use convert::{
    encode_error, encode_query_response, query_request, request_query, validate_request,
};
pub use frames::{
    decode_frame, encode_frame, Decoded, ErrorFrame, Frame, FrameType, KnnRequest,
    KnnResponseFrame, WindowRequest, WindowResponseFrame,
};
pub use lbq_obs::CacheTier;

/// The 4-byte frame magic: ASCII `LBQ1` (`4c 42 51 31`).
pub const MAGIC: [u8; 4] = *b"LBQ1";

/// Protocol version this implementation speaks (header byte 4).
pub const VERSION: u8 = 1;

/// Fixed size of the frame header (magic + version + type + reserved +
/// payload length).
pub const HEADER_LEN: usize = 12;

/// Largest `k` a v1 server accepts in a kNN request — bounds the
/// response size a single 28-byte request can demand.
pub const MAX_K: u32 = 4096;

/// Default payload cap for the *server* side of a connection. Requests
/// are fixed-size (≤ 40 bytes); the headroom exists only so future
/// request types (forward compatibility) can be skipped rather than
/// torn down.
pub const DEFAULT_SERVER_MAX_PAYLOAD: u32 = 4096;

/// Default payload cap for the *client* side of a connection —
/// responses scale with `k`, the window population, and the influence
/// set, so the cap is generous.
pub const DEFAULT_CLIENT_MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The v1 error-code registry (the `code` field of an error frame).
/// Codes are stable: new codes may be added, existing numbers are never
/// reused or renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ErrorCode {
    /// Frame did not start with [`MAGIC`] — the stream is out of sync.
    BadMagic = 1,
    /// Header version byte is not one this peer speaks.
    UnsupportedVersion = 2,
    /// Header type byte names no frame this peer knows (recoverable:
    /// the length prefix delimits the unknown payload).
    UnknownFrameType = 3,
    /// Declared payload length exceeds the receiver's cap.
    FrameTooLarge = 4,
    /// Payload contents violate the layout of their frame type
    /// (truncated fields, trailing bytes, invalid counts or flags, a
    /// non-convex validity polygon, a role violation).
    Malformed = 5,
    /// The request decoded but is semantically invalid (non-finite
    /// coordinates, `k` out of `1..=`[`MAX_K`], non-positive window
    /// extents). Recoverable: only the offending request is rejected.
    InvalidRequest = 6,
    /// The connection exceeded its in-flight request limit.
    TooManyInFlight = 7,
    /// The server is shutting down and will not answer this request.
    ShuttingDown = 8,
}

impl ErrorCode {
    /// Maps a wire code back into the registry (`None` for codes minted
    /// after this build).
    pub fn from_u32(v: u32) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadMagic),
            2 => Some(ErrorCode::UnsupportedVersion),
            3 => Some(ErrorCode::UnknownFrameType),
            4 => Some(ErrorCode::FrameTooLarge),
            5 => Some(ErrorCode::Malformed),
            6 => Some(ErrorCode::InvalidRequest),
            7 => Some(ErrorCode::TooManyInFlight),
            8 => Some(ErrorCode::ShuttingDown),
            _ => None,
        }
    }

    /// `true` when the error poisons the whole byte stream (framing can
    /// no longer be trusted) and the connection must be torn down.
    /// Recoverable codes ([`ErrorCode::UnknownFrameType`],
    /// [`ErrorCode::InvalidRequest`]) reject one frame and keep the
    /// connection.
    pub fn is_fatal(self) -> bool {
        !matches!(
            self,
            ErrorCode::UnknownFrameType | ErrorCode::InvalidRequest
        )
    }

    /// The registry name, for diagnostics (`bad-magic`, `malformed`, …).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownFrameType => "unknown-frame-type",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::Malformed => "malformed",
            ErrorCode::InvalidRequest => "invalid-request",
            ErrorCode::TooManyInFlight => "too-many-in-flight",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

/// A protocol violation detected while encoding or decoding: the
/// registry code that describes it plus a human-readable detail. This
/// is what a server copies into the error frame it answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Registry classification of the violation.
    pub code: ErrorCode,
    /// Diagnostic detail (quoted in the error frame; not contractual).
    pub detail: String,
}

impl WireError {
    /// Builds an error from its registry code and detail.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> WireError {
        WireError {
            code,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {}",
            self.code.name(),
            self.code as u32,
            self.detail
        )
    }
}

impl std::error::Error for WireError {}

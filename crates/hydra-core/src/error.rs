//! The runtime's unified error type.

use std::fmt;

use hydra_link::loader::LoadError;
use hydra_odf::odf::{Guid, OdfError};

use crate::call::{CallTypeError, MarshalError};
use crate::channel::ChannelError;
use crate::device::DeviceId;
use crate::layout::LayoutError;
use crate::offcode::OffcodeId;

/// Which leg of a migration failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateLeg {
    /// Loading/linking the image at the target.
    Load,
    /// Restoring the state snapshot into the new instance.
    Restore,
    /// The `Initialize` phase hook.
    Initialize,
    /// The `Start` phase hook.
    Start,
}

impl fmt::Display for MigrateLeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MigrateLeg::Load => "load",
            MigrateLeg::Restore => "restore",
            MigrateLeg::Initialize => "initialize",
            MigrateLeg::Start => "start",
        })
    }
}

/// A structured migration failure from [`Runtime::migrate`].
///
/// The variants make the transactional contract explicit: for the first
/// four the original instance is **untouched** (nothing was destroyed);
/// [`MigrateError::FellBack`] means the original was torn down but the
/// Offcode survived — it is running on the host with its snapshot
/// restored; only [`MigrateError::Unrecoverable`] loses the instance.
///
/// [`Runtime::migrate`]: crate::runtime::Runtime::migrate
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The Offcode does not implement `snapshot` — nothing to carry over.
    NotMigratable {
        /// Bind name of the Offcode.
        bind_name: String,
    },
    /// The target device does not match the ODF's device-class targets.
    IncompatibleTarget {
        /// Bind name of the Offcode.
        bind_name: String,
        /// The requested target.
        target: DeviceId,
    },
    /// The target's memory allocator cannot hold the Offcode's image.
    /// Original instance untouched.
    InsufficientCapacity {
        /// Bind name of the Offcode.
        bind_name: String,
        /// The requested target.
        target: DeviceId,
        /// The allocator's error.
        detail: String,
    },
    /// Linking the image at the target failed before teardown. Original
    /// instance untouched.
    TargetLoadFailed {
        /// Bind name of the Offcode.
        bind_name: String,
        /// The requested target.
        target: DeviceId,
        /// The loader's error.
        detail: String,
    },
    /// A post-teardown leg failed; the Offcode was redeployed on the host
    /// with its snapshot restored. `fallback` is the live instance.
    FellBack {
        /// Bind name of the Offcode.
        bind_name: String,
        /// Which leg failed on the target.
        leg: MigrateLeg,
        /// The underlying error.
        detail: String,
        /// The host-fallback instance now running.
        fallback: OffcodeId,
    },
    /// A post-teardown leg failed **and** the host fallback failed too:
    /// the instance is gone.
    Unrecoverable {
        /// Bind name of the Offcode.
        bind_name: String,
        /// Which leg failed on the target.
        leg: MigrateLeg,
        /// Both errors, target then fallback.
        detail: String,
    },
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::NotMigratable { bind_name } => {
                write!(f, "{bind_name} is not migratable (no snapshot support)")
            }
            MigrateError::IncompatibleTarget { bind_name, target } => {
                write!(f, "{target} is not a compatible target for {bind_name}")
            }
            MigrateError::InsufficientCapacity {
                bind_name,
                target,
                detail,
            } => write!(f, "{target} lacks capacity for {bind_name}: {detail}"),
            MigrateError::TargetLoadFailed {
                bind_name,
                target,
                detail,
            } => write!(f, "loading {bind_name} at {target} failed: {detail}"),
            MigrateError::FellBack {
                bind_name,
                leg,
                detail,
                fallback,
            } => write!(
                f,
                "{bind_name} migration failed at {leg} ({detail}); \
                 recovered on host as #{}",
                fallback.0
            ),
            MigrateError::Unrecoverable {
                bind_name,
                leg,
                detail,
            } => write!(
                f,
                "{bind_name} migration failed at {leg} and host fallback \
                 failed too: {detail}"
            ),
        }
    }
}

impl std::error::Error for MigrateError {}

/// Any failure surfaced by the HYDRA runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An ODF could not be parsed or validated.
    Odf(OdfError),
    /// Layout construction or resolution failed.
    Layout(LayoutError),
    /// Channel creation or use failed.
    Channel(ChannelError),
    /// Offcode loading failed (device memory, linking).
    Load(LoadError),
    /// Call marshaling failed.
    Marshal(MarshalError),
    /// A call failed interface type checking.
    CallType(CallTypeError),
    /// No Offcode with this GUID is registered in the depot.
    NotInDepot(Guid),
    /// The referenced deployed instance does not exist.
    NoSuchInstance(u32),
    /// An Offcode rejected an operation.
    Rejected(String),
    /// An Offcode does not implement the requested operation.
    UnknownOperation(String),
    /// An entry point was invoked in the wrong lifecycle state.
    BadState(&'static str),
    /// The static pre-flight verifier rejected the deployment. The string
    /// is the human rendering of every error-severity diagnostic.
    Verification(String),
    /// A migration failed; see [`MigrateError`] for what survived.
    Migrate(MigrateError),
}

macro_rules! from_impl {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for RuntimeError {
            fn from(e: $ty) -> Self {
                RuntimeError::$variant(e)
            }
        }
    };
}

from_impl!(Odf, OdfError);
from_impl!(Layout, LayoutError);
from_impl!(Channel, ChannelError);
from_impl!(Load, LoadError);
from_impl!(Marshal, MarshalError);
from_impl!(CallType, CallTypeError);
from_impl!(Migrate, MigrateError);

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Odf(e) => write!(f, "odf: {e}"),
            RuntimeError::Layout(e) => write!(f, "layout: {e}"),
            RuntimeError::Channel(e) => write!(f, "channel: {e}"),
            RuntimeError::Load(e) => write!(f, "load: {e}"),
            RuntimeError::Marshal(e) => write!(f, "marshal: {e}"),
            RuntimeError::CallType(e) => write!(f, "call type: {e}"),
            RuntimeError::NotInDepot(g) => write!(f, "offcode {g} not in depot"),
            RuntimeError::NoSuchInstance(id) => write!(f, "no deployed offcode #{id}"),
            RuntimeError::Rejected(why) => write!(f, "rejected: {why}"),
            RuntimeError::UnknownOperation(op) => write!(f, "unknown operation '{op}'"),
            RuntimeError::BadState(what) => write!(f, "bad lifecycle state: {what}"),
            RuntimeError::Verification(report) => {
                write!(f, "deployment rejected by verifier: {report}")
            }
            RuntimeError::Migrate(e) => write!(f, "migrate: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: RuntimeError = OdfError::Missing("package").into();
        assert!(e.to_string().contains("package"));
        let e: RuntimeError = ChannelError::NoProvider.into();
        assert!(e.to_string().contains("provider"));
        let e = RuntimeError::NotInDepot(Guid(7));
        assert!(e.to_string().contains("guid:7"));
        let e: RuntimeError = MigrateError::NotMigratable {
            bind_name: "tivo.Streamer".into(),
        }
        .into();
        assert!(e.to_string().contains("not migratable"));
        let e = MigrateError::FellBack {
            bind_name: "tivo.Streamer".into(),
            leg: MigrateLeg::Restore,
            detail: "boom".into(),
            fallback: OffcodeId(9),
        };
        assert!(e.to_string().contains("restore"));
        assert!(e.to_string().contains("#9"));
    }
}

//! Overset (Chimera) grid substrate shared by INS3D and OVERFLOW-D.
//!
//! Both production codes decompose their complex geometry into many
//! simple curvilinear grid components ("blocks" or "zones") that
//! overlap; connectivity between neighbouring grids is established by
//! interpolation at the outer boundaries (§3.4), and parallelism comes
//! from grouping grids onto processes with a bin-packing algorithm
//! that first checks for overlap (§3.5).
//!
//! * [`block`] — grid blocks with bounding boxes and point counts, and
//!   grid systems: [`GridSystem::new`] finds each block's overlapping
//!   neighbours once, when the system is built;
//! * [`connect`] — donor search and trilinear interpolation weights for
//!   fringe points;
//! * [`group`] — the connectivity-aware bin-packing grouper;
//! * [`systems`] — deterministic generators for the two grid systems
//!   the paper uses: the 267-block / 66-million-point turbopump
//!   (INS3D) and the 1,679-block / 75-million-point rotor-wake system
//!   (OVERFLOW-D), plus arbitrary scaled-down versions for host runs.

pub mod block;
pub mod connect;
pub mod group;
pub mod systems;

pub use block::{Block, GridSystem};
pub use group::{group_blocks, Grouping};

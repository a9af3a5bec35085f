#![forbid(unsafe_code)]

pub use nkg_artifact as artifact;
pub use nkg_ckpt as ckpt;
pub use nkg_coupling as coupling;
pub use nkg_dpd as dpd;
pub use nkg_mci as mci;
pub use nkg_mesh as mesh;
pub use nkg_net as net;
pub use nkg_partition as partition;
pub use nkg_perfmodel as perfmodel;
pub use nkg_sem as sem;
pub use nkg_simd as simd;
pub use nkg_topo as topo;
pub use nkg_viz as viz;
pub use nkg_wpod as wpod;

"""occloc: indoor smartphone localization over existing LED lighting.

Ceiling fixtures broadcast their coordinates as modulated light; a smartphone
camera decodes them, measures range from each fixture's projected pixel area,
and a lighting server trilaterates and Kalman-tracks the phone. This package
is the desk-scale simulator and library for that pipeline.
"""

__version__ = "0.1.0"

from .geometry import (
    CameraModel,
    Circular,
    Luminaire,
    Point3,
    Pose,
    Rectangular,
    RoomConfig,
    distance,
    incidence_angle,
)
from .imaging import (
    FeasibilityRegime,
    Projection,
    Sighting,
    distance_from_pixels,
    feasibility,
    image_distance,
    observe_scene,
    pixel_count,
    project,
    ranging_constant,
    visible,
)
from .modem import (
    BadCrc,
    BadPreamble,
    FrameError,
    SampledWaveform,
    decode_frame,
    demodulate,
    encode_frame,
    measure_ber,
    modulate,
    ook_ber_theoretical,
)
from .solver import (
    CollinearAnchors,
    CollinearFamily,
    DegenerateAnchors,
    InsufficientAnchors,
    Method,
    NoFeasibleCandidate,
    NoRealRoot,
    PositionEstimate,
    SolverError,
    estimate_position,
    multilaterate,
    resolve_ambiguity,
    trilaterate,
    trilaterate_collinear,
)
from .tracker import (
    KalmanConfig,
    KalmanState,
    initial_state,
    predict,
    update,
)
from .server import (
    DetectionPacket,
    DetectionRecord,
    IngestResult,
    LedRegistry,
    LightingServer,
    ProbePhase,
    ProbeStatus,
    SessionClosed,
    StaleTimestamp,
    UnknownLedId,
    packet_from_line,
    packet_to_line,
    replay_packet_log,
)
from .harness import (
    BerPoint,
    FilterComparisonPoint,
    FixtureSpec,
    RangePoint,
    RunRecord,
    Scenario,
    ScenarioError,
    VisibilityScan,
    default_filtercmp_scenario,
    default_scenario,
    range_boundaries_m,
    run_ber_sweep,
    run_filter_comparison,
    run_range_sweep,
    run_tracking,
    scenario_from_dict,
    scenario_to_dict,
    trajectory_point,
    visibility_scan,
)

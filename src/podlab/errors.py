"""Exception hierarchy shared by all podlab modules; each class's ``prefix``
names the module that raises it, which starts the CLI's error line."""


class PodlabError(Exception):
    """Base class for all domain errors raised by podlab."""

    prefix = "podlab"


class LtiError(PodlabError):
    prefix = "lti-core"


class PlantError(PodlabError):
    prefix = "refplant"


class ChannelError(PodlabError):
    prefix = "channel"


class DelayModelError(PodlabError):
    prefix = "delaymodel"


class SysidError(PodlabError):
    prefix = "sysid"


class DesignError(PodlabError):
    prefix = "poddesign"


class NyquistLimitError(DesignError):
    """A requested mode lies above the channel Nyquist frequency."""

    def __init__(self, mode_freq_hz: float, f_max_hz: float):
        self.mode_freq_hz = mode_freq_hz
        self.f_max_hz = f_max_hz
        super().__init__(
            f"NY-LIMIT: mode at {mode_freq_hz:g} Hz exceeds the channel "
            f"Nyquist frequency {f_max_hz:g} Hz"
        )

    def __reduce__(self):
        # pickle rebuilds an exception from its args, here the message
        return type(self), (self.mode_freq_hz, self.f_max_hz)


class InfeasibleOperatingPointError(DesignError):
    pass


class AnalysisError(PodlabError):
    prefix = "analysis"


class SimulationError(PodlabError):
    prefix = "simloop"


class ConfigError(PodlabError):
    prefix = "cli"

/**
 * @file
 * A trace: a named sequence of frames plus the shader / texture /
 * render-target tables those frames reference. This is the on-disk and
 * in-memory unit a capture tool would produce for one game run.
 */

#ifndef GWS_TRACE_TRACE_HH
#define GWS_TRACE_TRACE_HH

#include <string>
#include <vector>

#include "shader/shader_library.hh"
#include "trace/frame.hh"
#include "trace/resources.hh"

namespace gws {

/** A complete captured (or synthesized) 3D workload. */
class Trace
{
  public:
    /** Construct an empty trace with a name. */
    explicit Trace(std::string name = "unnamed") : traceName(std::move(name)) {}

    /** Workload name, e.g. "shock1". */
    const std::string &name() const { return traceName; }

    /** Rename (used by subset extraction). */
    void setName(std::string name) { traceName = std::move(name); }

    /** Shader table. */
    const ShaderLibrary &shaders() const { return shaderTable; }
    ShaderLibrary &shaders() { return shaderTable; }

    /** Register a texture; returns its id. */
    TextureId addTexture(TextureDesc desc);

    /** Register a render target; returns its id. */
    RenderTargetId addRenderTarget(RenderTargetDesc desc);

    /** Texture lookup; panics when out of range. */
    const TextureDesc &texture(TextureId id) const;

    /** Render-target lookup; panics when out of range. */
    const RenderTargetDesc &renderTarget(RenderTargetId id) const;

    /** All textures. */
    const std::vector<TextureDesc> &textures() const { return textureTable; }

    /** All render targets. */
    const std::vector<RenderTargetDesc> &
    renderTargets() const
    {
        return renderTargetTable;
    }

    /** Append a frame (its index must equal frameCount()). */
    void addFrame(Frame frame);

    /** All frames in order. */
    const std::vector<Frame> &frames() const { return frameList; }

    /** Frame by index. */
    const Frame &frame(std::size_t i) const;

    /** Number of frames. */
    std::size_t frameCount() const { return frameList.size(); }

    /** Total draw calls over all frames. */
    std::uint64_t totalDraws() const;

    /** Total bytes bound as textures by any draw (sum of table). */
    std::uint64_t textureBytes() const;

    /**
     * Cross-checks internal consistency: every shader / texture /
     * render-target id referenced by any draw resolves, shader stages
     * match their binding points, frame indices are dense, and counts
     * are sane. Panics on the first violation (these are generator or
     * deserializer bugs, not user errors).
     */
    void validate() const;

    /** Equality over all content (serialization round-trip tests). */
    bool operator==(const Trace &other) const = default;

  private:
    std::string traceName;
    ShaderLibrary shaderTable;
    std::vector<TextureDesc> textureTable;
    std::vector<RenderTargetDesc> renderTargetTable;
    std::vector<Frame> frameList;
};

} // namespace gws

#endif // GWS_TRACE_TRACE_HH
